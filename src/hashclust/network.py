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

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpecError, ShapeError

ACTIVATIONS = ("relu", "tanh")
_ACT_TAG = {"relu": 0, "tanh": 1}
_TAG_ACT = {v: k for k, v in _ACT_TAG.items()}


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
    grads = [None] * len(trace.layers)
    g = grad_h
    for i in range(len(trace.layers) - 1, -1, -1):
        a = trace.acts[i]
        if trace.layers[i].activation == "relu":
            dz = g * (a > 0.0)
        else:
            dz = g * (1.0 - a * a)
        a_prev = trace.inputs if i == 0 else trace.acts[i - 1]
        dw = a_prev.T @ dz
        db = dz.sum(axis=0)
        grads[i] = (dw, db)
        if i > 0:
            g = dz @ trace.weights[i].T
    return np.concatenate([np.concatenate([dw.ravel(), db]) for dw, db in grads])


@dataclass(frozen=True)
class HashCode:
    """An L-bit code in {-1,+1}^L with a canonical packed byte form.

    Bit j of the packed form, MSB-first within each byte, is
    ``(bits[j] + 1) / 2``; padding bits in the last byte are zero.
    """

    packed: bytes
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ShapeError("code length must be >= 1")
        if len(self.packed) != (self.length + 7) // 8:
            raise ShapeError(
                f"packed length {len(self.packed)} does not match {self.length} bits"
            )
        pad = len(self.packed) * 8 - self.length
        if pad and (self.packed[-1] & ((1 << pad) - 1)):
            raise ShapeError("padding bits in packed code must be zero")

    @classmethod
    def from_bits(cls, bits) -> "HashCode":
        bits = np.asarray(bits)
        if bits.ndim != 1:
            raise ShapeError("bits must be a vector")
        if not np.all(np.abs(bits) == 1):
            raise ShapeError("every component must be exactly -1 or +1")
        packed = np.packbits((bits > 0).astype(np.uint8)).tobytes()
        return cls(packed=packed, length=bits.size)

    @property
    def bits(self) -> np.ndarray:
        raw = np.unpackbits(np.frombuffer(self.packed, dtype=np.uint8), count=self.length)
        return (raw.astype(np.int8) * 2 - 1)


def binarize_batch(h) -> np.ndarray:
    """Threshold a batch of outputs to a (B, L) array of +-1 (int8); sign(0) maps to +1."""
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    return np.where(h >= 0.0, 1, -1).astype(np.int8)


def group_codes(h):
    """Group a batch of outputs by code: returns (codes, index).

    ``codes`` holds each distinct code's packed bytes, one uint8 row each, in
    ascending byte order (each row is one void-typed value, so the sort
    compares raw bytes); ``index`` each sample's row in codes.
    """
    packed = np.packbits(binarize_batch(h) > 0, axis=1)
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    distinct, index = np.unique(rows, return_inverse=True)
    return distinct.view(np.uint8).reshape(-1, packed.shape[1]), index


def code_words(packed) -> np.ndarray:
    """The compare form of packed code rows: (n, ceil(L/64)) uint64.

    Each row of packed bytes (the HashCode.packed layout) is zero-filled at
    the end to whole 64-bit words, read big-endian. Word rows then order as
    their byte rows do, and the popcount of the XOR of two rows is the
    hamming distance of their codes, for any L.
    """
    packed = np.asarray(packed, dtype=np.uint8)
    return np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(">u8").astype(np.uint64)


# Parameter wire format: 4-byte big-endian layer count, then per layer
# input_dim (4 bytes BE), output_dim (4 bytes BE), activation tag (1 byte),
# then all values as consecutive 32-bit IEEE-754 big-endian reals. The cost
# ledger counts the values section only (32 bits per parameter); the header
# is physical overhead.

def serialize_params(params: NetworkParams) -> bytes:
    parts = [struct.pack(">I", len(params.layers))]
    for l in params.layers:
        parts.append(struct.pack(">IIB", l.input_dim, l.output_dim, _ACT_TAG[l.activation]))
    parts.append(params.values.astype(">f4"))
    return b"".join(parts)


def serialize_values(params: NetworkParams, values) -> bytes:
    """Serialize an arbitrary flat vector (e.g. a gradient) with the layer header."""
    clone = NetworkParams(params.layers, np.asarray(values, dtype=np.float64))
    return serialize_params(clone)


def read_layer_header(data: bytes):
    """The layer specs of a serialized blob, and the offset its values start at."""
    if len(data) < 4:
        raise ShapeError("truncated parameter blob")
    (n_layers,) = struct.unpack(">I", data[:4])
    off = 4
    layers = []
    for _ in range(n_layers):
        if off + 9 > len(data):
            raise ShapeError("truncated layer header")
        in_dim, out_dim, tag = struct.unpack(">IIB", data[off : off + 9])
        off += 9
        if tag not in _TAG_ACT:
            raise ShapeError(f"unknown activation tag {tag}")
        layers.append(LayerSpec(in_dim, out_dim, _TAG_ACT[tag]))
    return tuple(layers), off


def deserialize_params(data: bytes) -> NetworkParams:
    layers, off = read_layer_header(data)
    n = param_count(layers)
    if len(data) - off != 4 * n:
        raise ShapeError(f"value section has {len(data) - off} bytes, expected {4 * n}")
    values = np.frombuffer(data, dtype=">f4", count=n, offset=off).astype(np.float64)
    return NetworkParams(layers=layers, values=values)
