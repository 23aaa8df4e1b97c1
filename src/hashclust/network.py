"""The learnable hash function.

A small fully-connected network with ReLU hidden layers and a tanh output
head. During training the tanh head stands in for the sign function so that
gradients exist; at inference the outputs are thresholded to L-bit codes in
{-1,+1}^L.

Parameters live in a single flat vector (per layer: weights row-major, then
biases) so that whole-network gradients and wire transfers are a single
array. Values are kept on the float32 grid (stored as float64) because every
parameter transfer is accounted and serialized as 32-bit IEEE-754 reals;
keeping the in-memory state on that grid makes simulated and wire runs
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpecError, ShapeError

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class LayerSpec:
    """One fully-connected layer: ``output = act(x @ W + b)``."""

    input_dim: int
    output_dim: int
    activation: str

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise InvalidSpecError(f"layer dims must be positive: {self}")
        if self.activation not in ACTIVATIONS:
            raise InvalidSpecError(f"unknown activation {self.activation!r}")

    @property
    def n_params(self) -> int:
        return self.input_dim * self.output_dim + self.output_dim


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
    """Layer shapes plus one flat value vector (weights then biases per layer)."""

    layers: tuple[LayerSpec, ...]
    values: np.ndarray

    def __post_init__(self):
        self.layers = validate_spec(self.layers)
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = sum(l.n_params for l in self.layers)
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
    layers = getattr(params, "layers", params)
    layers = tuple(layers)
    if not layers:
        raise InvalidSpecError("layer list is empty")
    return sum(l.n_params for l in layers)


def as_float32_grid(values: np.ndarray) -> np.ndarray:
    """Round to the nearest float32 and return as float64.

    Applied wherever a value crosses (or could cross) the wire, since the
    transfer format is float32.
    """
    return np.asarray(values, dtype=np.float64).astype(np.float32).astype(np.float64)


def init_network(spec, seed: int) -> NetworkParams:
    """Random initialization: per-layer uniform weights in +-1/sqrt(fan_in), zero biases.

    Deterministic for a fixed seed. The scale keeps the tanh head away from
    saturation at the start of training.
    """
    layers = validate_spec(spec)
    rng = np.random.default_rng(seed)
    chunks = []
    for l in layers:
        bound = 1.0 / np.sqrt(l.input_dim)
        chunks.append(rng.uniform(-bound, bound, size=l.input_dim * l.output_dim))
        chunks.append(np.zeros(l.output_dim))
    values = as_float32_grid(np.concatenate(chunks))
    return NetworkParams(layers=layers, values=values)


def _split(params: NetworkParams):
    """Yield (W, b) views of the flat value vector, one pair per layer."""
    off = 0
    for l in params.layers:
        w = params.values[off : off + l.input_dim * l.output_dim]
        off += l.input_dim * l.output_dim
        b = params.values[off : off + l.output_dim]
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
    parameter vector; no update writes one in place, each builds a new one.
    """

    inputs: np.ndarray
    layers: tuple
    weights: list = field(default_factory=list)
    acts: list = field(default_factory=list)


def forward(params: NetworkParams, x) -> tuple[np.ndarray, ForwardTrace]:
    """Run the relaxed network on a batch.

    Parameters
    ----------
    x : array, shape (B, input_dim) or (input_dim,)
        Input batch; a single vector is treated as a batch of one.

    Returns
    -------
    h : array, shape (B, L)
        tanh outputs, every component in [-1, 1].
    trace : ForwardTrace
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params.input_dim:
        raise ShapeError(
            f"input has dimension {x.shape[1]}, network expects {params.input_dim}"
        )
    trace = ForwardTrace(inputs=x, layers=params.layers)
    a = x
    for (w, b), spec in zip(_split(params), params.layers):
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
    # dW and db of each layer go straight into their place in the flat vector
    out = np.empty(sum(l.n_params for l in trace.layers))
    end = out.size
    g = grad_h
    for i in range(len(trace.layers) - 1, -1, -1):
        layer = trace.layers[i]
        a = trace.acts[i]
        if layer.activation == "relu":
            dz = g * (a > 0.0)
        else:
            dz = g * (1.0 - a * a)
        a_prev = trace.inputs if i == 0 else trace.acts[i - 1]
        start = end - layer.n_params
        n_w = layer.input_dim * layer.output_dim
        np.matmul(a_prev.T, dz, out=out[start : start + n_w].reshape(layer.input_dim, layer.output_dim))
        dz.sum(axis=0, out=out[start + n_w : end])
        end = start
        if i > 0:
            g = dz @ trace.weights[i].T
    return out


@dataclass(frozen=True)
class HashCode:
    """An L-bit code as packed bytes, MSB first, padding bits zero: a bare
    record of the boundary form, checked by ``codebook.checked_code_words``."""

    packed: bytes
    length: int


def binarize_batch(h) -> np.ndarray:
    """Threshold a batch of outputs to a (B, L) array of +-1 (int8); sign(0) maps to +1."""
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    return np.where(h >= 0.0, 1, -1).astype(np.int8)


def output_words(h) -> np.ndarray:
    """The ``code_words`` rows of a batch of outputs: a code bit is set where
    ``binarize_batch`` gives +1."""
    return code_words(np.packbits(binarize_batch(h) > 0, axis=1))


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


# Parameter wire format: the values as consecutive 32-bit IEEE-754
# big-endian reals, nothing else. Coordinator and sites agree the layers once,
# in the hello (wire.config_digest), so a blob's length is its only check.
# The cost ledger counts these 32 bits per parameter; a gradient frame's loss
# trailer is physical overhead.


def write_blob(values, trailer: bytes = b"") -> bytearray:
    """One buffer, written in place: ``values`` as big-endian float32, then
    ``trailer`` (the gradient frame's loss)."""
    n = len(values)
    blob = bytearray(4 * n + len(trailer))
    np.frombuffer(blob, dtype=">f4", count=n)[:] = values
    blob[4 * n :] = trailer
    return blob


def serialize_params(params: NetworkParams) -> bytearray:
    return write_blob(params.values)


def serialize_values(params: NetworkParams, values) -> bytearray:
    """Serialize an arbitrary flat vector (e.g. a gradient) of ``params``' length."""
    return serialize_params(NetworkParams(params.layers, np.asarray(values, dtype=np.float64)))


def read_blob(data, n: int, trailer: int = 0) -> np.ndarray:
    """The ``n`` values of a serialized blob as a big-endian float32 view of
    ``data``; ``trailer`` bytes follow them (the gradient frame's loss). The
    one check of a blob's length."""
    size = len(data) - trailer
    if size != 4 * n:
        raise ShapeError(f"value section has {size} bytes, expected {4 * n}")
    return np.frombuffer(data, dtype=">f4", count=n)


def deserialize_params(data, layers) -> NetworkParams:
    """The parameters of the network of ``layers`` from their serialized values."""
    return NetworkParams(layers, read_blob(data, param_count(layers)).astype(np.float64))
