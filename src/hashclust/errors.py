"""Exception types shared across the package, and the one check of a real-valued
setting and of a count. Every refusal is a HashClustError: InvalidSpecError,
ShapeError, InconsistentStateError, PipelineError or ProtocolError."""

import numbers


class HashClustError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpecError(HashClustError):
    """A layer list, cluster spec, or config fails its structural invariants,
    a cluster count k is outside [1, n], a batch size is below 1, or a
    dataset is too small for every site's minimum shard size."""


class ShapeError(HashClustError):
    """An array argument has the wrong dimensions or length: an empty shard,
    features and labels of different lengths, fewer than two samples for a
    pair, a graph past the dense bound, or dense weights that are not square
    or hold a NaN, an infinity or a negative weight."""


class InconsistentStateError(HashClustError):
    """Codebooks disagree with the data or with each other: the merged
    book's degrees do not sum to the n samples, it holds more than
    min(2**L, n) entries, a wire site sent a book unlike the coordinator's
    encoding of its shard, or in label propagation a site book has another
    code length than the global one or a code missing from it; a book has
    duplicate codes (build_graph refuses them, and the cut reads every book
    through it, on the matrix-free and the dense path alike) or mixed code
    lengths; a merge has no book or an empty one."""


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


def check_integer(value, name: str) -> None:
    """Refuse a count or seed that is not an integer; a bool is none."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise InvalidSpecError(f"{name} must be an integer, got {value!r}")
