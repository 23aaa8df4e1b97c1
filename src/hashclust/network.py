"""The learnable hash function.

A small fully-connected network with ReLU hidden layers and a tanh output
head. During training the tanh head stands in for the sign function so that
gradients exist; at inference ``output_words`` thresholds the outputs to
L-bit codes, held as ``code_words`` rows, the one in-memory code form.

Parameters live in a single flat vector so that whole-network gradients and
wire transfers are a single array; ``_split`` alone knows its layout (per
layer: weights row-major, then biases) and ``param_count`` its length.
Values are kept on the float32 grid (stored as float64) because every
parameter transfer is accounted and sent (wire.py) as 32-bit IEEE-754 reals;
keeping the in-memory state on that grid makes simulated and wire runs
bit-identical.

The forward pass runs in float64 wherever its outputs are trained on,
counted, sent or clustered. Batch selection alone evaluates it in float32
(``forward(..., dtype=np.float32)``): the weights cast to float32 exactly,
being on its grid, while the inputs round to it, so only a sample whose
output lies within float32 rounding of 0 can fall in another bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpecError, ShapeError, check_integer

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class LayerSpec:
    """One fully-connected layer: ``output = act(x @ W + b)``."""

    input_dim: int
    output_dim: int
    activation: str

    def __post_init__(self):
        for key in ("input_dim", "output_dim"):
            check_integer(getattr(self, key), key, 1)
        if self.activation not in ACTIVATIONS:
            raise InvalidSpecError(f"unknown activation {self.activation!r}")


def mlp_spec(input_dim: int, hidden_dims, code_length: int) -> tuple[LayerSpec, ...]:
    """Reference architecture: ReLU hidden layers, tanh head of width ``code_length``."""
    dims = [input_dim, *hidden_dims]
    layers = [
        LayerSpec(dims[i], dims[i + 1], "relu") for i in range(len(dims) - 1)
    ]
    layers.append(LayerSpec(dims[-1], code_length, "tanh"))
    return tuple(layers)


def validate_spec(layers) -> tuple[LayerSpec, ...]:
    """Check the dimension chain and the tanh head; return the spec as a tuple."""
    layers = tuple(layers)
    if not layers:
        raise InvalidSpecError("layer list is empty")
    for a, b in zip(layers, layers[1:]):
        if a.output_dim != b.input_dim:
            raise InvalidSpecError(
                f"dimension chain broken: {a.output_dim} -> {b.input_dim}"
            )
    if layers[-1].activation != "tanh":
        raise InvalidSpecError("final layer must use tanh")
    return layers


@dataclass
class NetworkParams:
    """Layer shapes plus one flat value vector, laid out as ``_split`` reads it."""

    layers: tuple[LayerSpec, ...]
    values: np.ndarray

    def __post_init__(self):
        self.layers = validate_spec(self.layers)
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = param_count(self.layers)
        if self.values.shape != (expected,):
            raise ShapeError(
                f"values has length {self.values.shape}, expected ({expected},)"
            )

    @property
    def code_length(self) -> int:
        return self.layers[-1].output_dim

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim


def param_count(params) -> int:
    """Total number of scalar parameters, weights plus biases over all layers."""
    layers = tuple(getattr(params, "layers", params))
    if not layers:
        raise InvalidSpecError("layer list is empty")
    return sum(l.input_dim * l.output_dim + l.output_dim for l in layers)


def init_network(spec, seed: int) -> NetworkParams:
    """Random initialization: per-layer uniform weights in +-1/sqrt(fan_in), zero biases.

    Deterministic for a fixed seed. The scale keeps the tanh head away from
    saturation at the start of training. The weights are drawn into a float32
    vector, which rounds them onto the grid the wire carries.
    """
    layers = validate_spec(spec)
    check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    values = np.zeros(param_count(layers), dtype=np.float32)
    for w, _ in _split(layers, values):
        bound = 1.0 / np.sqrt(len(w))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return NetworkParams(layers=layers, values=values)


def _split(layers, values):
    """Yield (W, b) views of the flat value vector, one pair per layer."""
    off = 0
    for l in layers:
        w = values[off : off + l.input_dim * l.output_dim]
        off += l.input_dim * l.output_dim
        b = values[off : off + l.output_dim]
        off += l.output_dim
        yield w.reshape(l.input_dim, l.output_dim), b


@dataclass
class ForwardTrace:
    """Intermediates of one forward pass, kept for backpropagation.

    ``inputs`` is the batch fed to layer 0; ``acts[i]`` is layer i's
    activation (a ReLU unit's output is positive exactly where its
    pre-activation is, so backward needs no pre-activations). ``layers`` and
    ``weights[i]`` are the specs and weight matrices the pass ran with, so
    backward differentiates exactly that pass. The weights are views of the
    parameter vector (of its cast copy, in a pass of another dtype); no
    update writes one in place, each builds a new one.
    """

    inputs: np.ndarray
    layers: tuple
    weights: list = field(default_factory=list)
    acts: list = field(default_factory=list)


def forward(params: NetworkParams, x, dtype=np.float64) -> tuple[np.ndarray, ForwardTrace]:
    """Run the relaxed network on a batch, every layer in ``dtype``.

    The input and the parameter vector are cast to ``dtype`` once. Training,
    encoding and every caller that counts or sends a result run in float64,
    the default. Batch selection passes float32 (``sampling.build_buckets``):
    a bucket is only a sample's sign pattern, and a single-precision product
    costs about half a double one. The cast is exact for the weights, which
    sit on the float32 grid, but rounds the inputs, and every layer rounds to
    float32, so a sample whose output lies within that rounding of 0 can take
    the other sign.

    Parameters
    ----------
    x : array, shape (B, input_dim) or (input_dim,)
        Input batch; a single vector is treated as a batch of one.
    dtype : float64 or float32
        The dtype of the outputs and of every array of the trace.

    Returns
    -------
    h : array, shape (B, L)
        tanh outputs, every component in [-1, 1].
    trace : ForwardTrace
    """
    x = np.atleast_2d(np.asarray(x, dtype=dtype))
    if x.ndim != 2:
        raise ShapeError(f"input must be a 2-D array or a vector, got shape {x.shape}")
    if x.shape[1] != params.input_dim:
        raise ShapeError(
            f"input has dimension {x.shape[1]}, network expects {params.input_dim}"
        )
    trace = ForwardTrace(inputs=x, layers=params.layers)
    a = x
    values = params.values.astype(dtype, copy=False)
    for (w, b), spec in zip(_split(params.layers, values), params.layers):
        a = a @ w
        a += b
        if spec.activation == "relu":
            np.maximum(a, 0.0, out=a)
        else:
            np.tanh(a, out=a)
        trace.weights.append(w)
        trace.acts.append(a)
    return a, trace


def backward(trace: ForwardTrace, grad_h) -> np.ndarray:
    """Vector-Jacobian product through the relaxed network.

    ``grad_h`` is the gradient of a scalar loss with respect to the network
    outputs ``h`` (batch contributions already scaled by the caller, e.g. a
    batch mean). Returns the gradient of that same scalar with respect to the
    flat parameter vector, at the weights the trace carries from its forward
    pass.

    Subgradient conventions: ReLU' at 0 is 0.
    """
    grad_h = np.asarray(grad_h, dtype=np.float64)
    if grad_h.shape != trace.acts[-1].shape:
        raise ShapeError(
            f"grad_h has shape {grad_h.shape}, outputs have {trace.acts[-1].shape}"
        )
    # dW and db of each layer go straight into their views of the flat vector
    out = np.empty(param_count(trace.layers))
    g = grad_h
    for i, (dw, db) in reversed(list(enumerate(_split(trace.layers, out)))):
        a = trace.acts[i]
        if trace.layers[i].activation == "relu":
            dz = g * (a > 0.0)
        else:
            dz = g * (1.0 - a * a)
        a_prev = trace.inputs if i == 0 else trace.acts[i - 1]
        np.matmul(a_prev.T, dz, out=dw)
        dz.sum(axis=0, out=db)
        if i > 0:
            g = dz @ trace.weights[i].T
    return out


@dataclass(frozen=True)
class HashCode:
    """An L-bit code as packed bytes, MSB first, padding bits zero: a bare
    record of the boundary form, checked by ``codebook.checked_code_words``."""

    packed: bytes
    length: int


def output_words(h) -> np.ndarray:
    """The ``code_words`` rows of a batch of outputs, the one sign rule: a
    code bit is set where h >= 0 (sign(0) is +1, for -0.0 too), compared in
    h's own dtype."""
    return code_words(np.packbits(np.atleast_2d(h) >= 0.0, axis=1))


def group_words(words):
    """The one grouping of code rows, given as ``code_words``: returns (order,
    starts). ``order`` sorts the rows stably, so codes ascend in byte order and
    equal codes keep their row order; ``starts`` holds where in ``order`` each
    distinct code begins."""
    # lexsort needs a key; rows of no words, which only an empty book has, are all equal
    order = np.lexsort(words.T[::-1]) if words.size else np.arange(len(words))
    ordered = words[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, np.flatnonzero(first)


def code_words(packed) -> np.ndarray:
    """The in-memory form of packed code rows: (n, ceil(L/64)) uint64.

    Each row of packed bytes (``np.packbits`` of where a code is +1) is
    zero-filled at the end to whole 64-bit words, read big-endian. Word rows
    then order as their byte rows do, and the popcount of the XOR of two rows
    is the hamming distance of their codes, for any L. ``packed_rows`` is the
    inverse.
    """
    packed = np.asarray(packed, dtype=np.uint8)
    n, width = packed.shape
    padded = np.zeros((n, width + -width % 8), dtype=np.uint8)
    padded[:, :width] = packed
    return padded.view(">u8").astype(np.uint64)


def packed_rows(words, length: int) -> np.ndarray:
    """The packed bytes of ``code_words`` rows of L-bit codes: (n, ceil(L/8)) uint8."""
    return words.astype(">u8").view(np.uint8)[:, : (length + 7) // 8]
