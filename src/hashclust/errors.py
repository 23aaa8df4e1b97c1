"""Exception types shared across the package, and the one check of a real-valued setting."""


class HashClustError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpecError(HashClustError):
    """A layer list, cluster spec, or config fails its structural invariants."""


class ShapeError(HashClustError):
    """An array argument has the wrong dimensions or length."""


class EmptyShardError(HashClustError):
    """A local dataset is empty where at least one sample is required."""


class InsufficientBatchError(HashClustError):
    """Fewer than two samples available, so no training pair can be formed."""


class InvalidCodebookError(HashClustError):
    """A codebook violates its invariants (e.g. duplicate codes)."""


class IncompatibleCodebooksError(HashClustError):
    """Codebooks with mixed code lengths cannot be merged."""


class InvalidKError(HashClustError):
    """Requested cluster count exceeds the number of vertices."""


class UnsupportedSizeError(HashClustError):
    """Graph too large for the dense eigensolver."""


class InfeasibleShardError(HashClustError):
    """Dataset too small to give every site its minimum shard size."""


class InconsistentStateError(HashClustError):
    """Codebooks disagree with the data or with each other: the merged
    book's degrees do not sum to the n samples, it holds more than
    min(2**L, n) entries, a wire site sent a book unlike the coordinator's
    encoding of its shard, or in label propagation a site book has another
    code length than the global one or a code missing from it."""


class PipelineError(HashClustError):
    """An end-to-end run failed; the message carries the phase name."""


class ProtocolError(HashClustError):
    """Malformed frame or unexpected message on the wire."""


class DegenerateHistoryWarning(UserWarning):
    """Training history has max loss == min loss; RER is reported as all zeros."""


def check_positive_finite(value, name: str) -> None:
    """Refuse a real-valued setting (a rate, scale or timeout) that is zero,
    negative, NaN or infinite."""
    if not 0.0 < value < float("inf"):
        raise InvalidSpecError(f"{name} must be a positive finite number, got {value}")
