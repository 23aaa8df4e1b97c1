"""Exception types shared across the package, and the one check of a real-valued
setting. Every refusal is a HashClustError: InvalidSpecError, ShapeError,
InconsistentStateError, PipelineError or ProtocolError."""


class HashClustError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpecError(HashClustError):
    """A layer list, cluster spec, or config fails its structural invariants,
    a cluster count k is outside [1, n], a batch size is below 1, or a
    dataset is too small for every site's minimum shard size."""


class ShapeError(HashClustError):
    """An array argument has the wrong dimensions or length: an empty shard,
    fewer than two samples for a pair, or a graph past the dense bound."""


class InconsistentStateError(HashClustError):
    """Codebooks disagree with the data or with each other: the merged
    book's degrees do not sum to the n samples, it holds more than
    min(2**L, n) entries, a wire site sent a book unlike the coordinator's
    encoding of its shard, or in label propagation a site book has another
    code length than the global one or a code missing from it; a book has
    duplicate codes or mixed code lengths; a merge has no book or an empty one."""


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
