"""Exception types shared across the package."""


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
    """A sample's code is missing from the global codebook."""


class PipelineError(HashClustError):
    """An end-to-end run failed; the message carries the phase name."""


class ProtocolError(HashClustError):
    """Malformed frame or unexpected message on the wire."""


class DegenerateHistoryWarning(UserWarning):
    """Training history has max loss == min loss; RER is reported as all zeros."""
