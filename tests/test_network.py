import numpy as np
import pytest

from hashclust.codebook import checked_code_words
from hashclust.errors import InvalidSpecError, ShapeError
from hashclust.network import (
    ForwardTrace,
    LayerSpec,
    NetworkParams,
    as_float32_grid,
    backward,
    code_words,
    forward,
    group_words,
    init_network,
    mlp_spec,
    output_words,
    packed_rows,
    param_count,
    validate_spec,
)
from hashclust.training import global_merge
from hashclust.wire import deserialize_params, serialize_params, serialize_values, write_blob

from oracles import (
    activations,
    binarize,
    finite_difference,
    hamming,
    pack_bits_batch,
    packed,
    pre_activations,
    unpacked,
    word_bytes,
)


def tiny_params(seed=0, dims=(3, 4, 2)):
    spec = mlp_spec(dims[0], dims[1:-1], dims[-1])
    return init_network(spec, seed)


# --- spec construction ---

def test_mlp_spec_shapes():
    spec = mlp_spec(4, (4, 4), 2)
    assert [(l.input_dim, l.output_dim, l.activation) for l in spec] == [
        (4, 4, "relu"),
        (4, 4, "relu"),
        (4, 2, "tanh"),
    ]


def test_param_count_hand_example():
    # [4->4 relu, 4->4 relu, 4->2 tanh]: (16+4)+(16+4)+(8+2) = 50
    params = init_network(mlp_spec(4, (4, 4), 2), 0)
    assert param_count(params) == 50


def test_param_count_single_layer():
    params = init_network((LayerSpec(1, 1, "tanh"),), 0)
    assert param_count(params) == 2


def test_validate_spec_rejects_chain_mismatch():
    with pytest.raises(InvalidSpecError):
        validate_spec((LayerSpec(3, 4, "relu"), LayerSpec(5, 2, "tanh")))


def test_validate_spec_requires_tanh_head():
    with pytest.raises(InvalidSpecError):
        validate_spec((LayerSpec(3, 2, "relu"),))


def test_validate_spec_rejects_empty():
    with pytest.raises(InvalidSpecError):
        validate_spec(())


# --- init ---

def test_init_deterministic():
    spec = mlp_spec(5, (6,), 3)
    a = init_network(spec, 123)
    b = init_network(spec, 123)
    assert np.array_equal(a.values, b.values)


def test_init_bounds_and_zero_biases():
    spec = mlp_spec(9, (7,), 4)
    params = init_network(spec, 5)
    off = 0
    for l in params.layers:
        w = params.values[off : off + l.input_dim * l.output_dim]
        off += l.input_dim * l.output_dim
        b = params.values[off : off + l.output_dim]
        off += l.output_dim
        assert np.all(np.abs(w) <= 1.0 / np.sqrt(l.input_dim))
        assert np.all(b == 0.0)


@pytest.mark.parametrize("hidden", [(), (6,), (7, 3)])
def test_init_draws_each_layers_weights_then_zero_biases_bitwise(hidden):
    spec = mlp_spec(5, hidden, 4)
    rng = np.random.default_rng(21)
    chunks = []
    for l in spec:
        bound = 1 / np.sqrt(l.input_dim)
        chunks += [rng.uniform(-bound, bound, size=l.input_dim * l.output_dim), np.zeros(l.output_dim)]
    expect = np.concatenate(chunks).astype(np.float32).astype(np.float64)
    assert np.array_equal(init_network(spec, 21).values, expect)


def test_init_values_on_float32_grid():
    params = tiny_params(seed=9)
    assert np.array_equal(params.values, params.values.astype(np.float32).astype(np.float64))


# --- forward ---

def test_forward_zero_params_gives_zero_outputs():
    spec = mlp_spec(3, (4,), 2)
    params = init_network(spec, 0)
    zero = NetworkParams(layers=params.layers, values=np.zeros_like(params.values))
    h, _ = forward(zero, np.ones((5, 3)))
    assert np.array_equal(h, np.zeros((5, 2)))


def test_forward_saturates_identity_layer():
    # Single tanh layer, large diagonal weights, x = (10, -10) -> ~(1, -1).
    layers = (LayerSpec(2, 2, "tanh"),)
    values = np.array([5.0, 0.0, 0.0, 5.0, 0.0, 0.0])
    params = NetworkParams(layers=layers, values=values)
    h, _ = forward(params, np.array([10.0, -10.0]))
    assert h.shape == (1, 2)
    assert abs(h[0, 0] - 1.0) < 1e-4
    assert abs(h[0, 1] + 1.0) < 1e-4


def test_forward_batch_shape_and_range():
    params = tiny_params()
    h, _ = forward(params, np.random.default_rng(0).normal(size=(7, 3)))
    assert h.shape == (7, 2)
    assert np.all(h >= -1.0) and np.all(h <= 1.0)


def test_forward_rejects_wrong_dimension():
    params = tiny_params()
    with pytest.raises(ShapeError):
        forward(params, np.zeros((2, 5)))


@pytest.mark.parametrize("dims", [(3, 4, 2), (16, 32, 8, 12)])
def test_forward_equals_the_out_of_place_expressions_bitwise(dims):
    params = tiny_params(seed=4, dims=dims)
    x = np.random.default_rng(2).normal(size=(50, dims[0]))
    h, trace = forward(params, x)
    expect = activations(params, x)
    assert len(trace.acts) == len(expect)
    for got, want in zip(trace.acts, expect):
        assert np.array_equal(got, want)
    assert h is trace.acts[-1]


def test_forward_pure():
    params = tiny_params(seed=3)
    x = np.random.default_rng(1).normal(size=(4, 3))
    h1, _ = forward(params, x)
    h2, _ = forward(params, x)
    assert np.array_equal(h1, h2)


@pytest.mark.parametrize("dims", [(3, 4, 2), (16, 32, 8, 12)])
def test_forward_in_float32_keeps_the_float64_code_bits_clear_of_zero(dims):
    """The selection pass: float32 outputs and trace, weights cast exactly,
    and the float64 pass's code bits wherever |h| > 1e-3."""
    params = tiny_params(seed=4, dims=dims)
    x = np.random.default_rng(2).normal(size=(500, dims[0]))
    h, trace = forward(params, x, dtype=np.float32)
    h64, trace64 = forward(params, x)
    assert h.dtype == np.float32 and h is trace.acts[-1]
    assert trace.inputs.dtype == np.float32
    assert [a.dtype for a in trace.acts] == [np.float32] * len(trace.acts)
    for w, w64 in zip(trace.weights, trace64.weights, strict=True):
        assert w.dtype == np.float32 and np.array_equal(w, w64)
    assert np.allclose(h, h64, rtol=0, atol=1e-5)
    clear = np.abs(h64) > 1e-3
    assert clear.mean() > 0.9
    assert np.array_equal((h >= 0.0)[clear], (h64 >= 0.0)[clear])
    rows = clear.all(axis=1)
    assert np.array_equal(output_words(h)[rows], output_words(h64)[rows])


# --- backward ---

def test_backward_zero_seed_gives_zero_grad():
    params = tiny_params()
    x = np.random.default_rng(2).normal(size=(3, 3))
    h, trace = forward(params, x)
    g = backward(trace, np.zeros_like(h))
    assert np.array_equal(g, np.zeros(param_count(params)))


def test_backward_linear_in_seed():
    params = tiny_params(seed=4)
    x = np.random.default_rng(3).normal(size=(3, 3))
    h, trace = forward(params, x)
    seed_grad = np.random.default_rng(4).normal(size=h.shape)
    g1 = backward(trace, seed_grad)
    g2 = backward(trace, 2.0 * seed_grad)
    assert np.allclose(g2, 2.0 * g1, rtol=0, atol=1e-15)


def test_backward_keeps_the_pass_of_its_trace():
    """A merge after forward builds new parameters; the trace keeps the old."""
    params = tiny_params(seed=5)
    x = np.random.default_rng(5).normal(size=(4, 3))
    h, trace = forward(params, x)
    seed_grad = np.random.default_rng(6).normal(size=h.shape)
    g = backward(trace, seed_grad)
    merged = global_merge(params, [g], 0.5)

    _, fresh = forward(params, x)
    assert np.array_equal(g, backward(fresh, seed_grad))
    _, moved = forward(merged, x)
    assert not np.array_equal(g, backward(moved, seed_grad))


def test_backward_relu_derivative_at_zero_is_zero():
    """ReLU' at 0 is 0: no gradient flows through a unit whose pre-activation is +0.0 or -0.0."""
    layers = (LayerSpec(2, 3, "relu"), LayerSpec(3, 2, "tanh"))
    w0 = np.array([[2.0, 0.5, 0.5], [-1.0, -0.25, 0.25]])
    b0 = np.array([0.0, 0.0, 0.1])
    w1 = np.array([[0.3, -0.2], [0.4, 0.1], [-0.5, 0.6]])
    b1 = np.array([0.05, -0.05])
    params = NetworkParams(layers, np.concatenate([w0.ravel(), b0, w1.ravel(), b1]))
    x = np.array([[1.0, 2.0], [3.0, 6.0]])
    z0 = pre_activations(params, x)[0]
    assert np.all(z0[:, :2] == 0.0) and not np.signbit(z0[:, :2]).any()
    assert np.all(z0[:, 2] > 0.0)
    h, trace = forward(params, x)
    # the matmul sums from +0.0, so no forward pass yields -0.0: set the
    # second unit's pre-activation to -0.0 by hand and rebuild its output
    z_neg = z0.copy()
    z_neg[:, 1] = -0.0
    assert np.signbit(z_neg[:, 1]).all()
    trace_neg = ForwardTrace(
        inputs=x, layers=layers, weights=trace.weights,
        acts=[np.maximum(z_neg, 0.0), trace.acts[1]],
    )
    seed_grad = np.random.default_rng(8).normal(size=h.shape)
    for tr in (trace, trace_neg):
        g = backward(tr, seed_grad)
        dw0, db0 = g[:6].reshape(2, 3), g[6:9]
        assert np.all(dw0[:, :2] == 0.0) and np.all(db0[:2] == 0.0)
        assert np.all(dw0[:, 2] != 0.0) and db0[2] != 0.0


@pytest.mark.parametrize("seed", range(5))
def test_backward_matches_finite_differences(seed):
    """Seeded linear functional of h, FD over every parameter."""
    rng = np.random.default_rng(seed)
    dims = (int(rng.integers(2, 6)), int(rng.integers(2, 6)), int(rng.integers(1, 5)))
    params = tiny_params(seed=seed, dims=dims)
    x = rng.normal(size=(3, dims[0]))
    seed_grad = rng.normal(size=(3, dims[-1]))

    h, trace = forward(params, x)
    analytic = backward(trace, seed_grad)

    def scalar(values):
        p = NetworkParams(layers=params.layers, values=values)
        hh, _ = forward(p, x)
        return float(np.sum(seed_grad * hh))

    numeric = finite_difference(scalar, params.values)
    denom = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(analytic - numeric) / denom) <= 1e-4


# --- binarize / codes ---

def test_binarize_sign_convention():
    code = binarize(np.array([0.3, -0.7, 0.0]))
    assert list(code) == [1, -1, 1]


def test_binarize_all_zero_is_all_plus_one():
    assert list(binarize(np.zeros(5))) == [1] * 5


def test_binarize_identity_on_codes():
    bits = np.array([-1, -1, -1, -1])
    assert list(binarize(bits.astype(float))) == list(bits)


def test_pack_unpack_bijection():
    rng = np.random.default_rng(0)
    for _ in range(50):
        length = int(rng.integers(1, 20))
        bits = rng.choice([-1, 1], size=length)
        code = packed(bits)
        assert np.array_equal(unpacked(code, length), bits)
        again = packed_rows(code_words(np.frombuffer(code, dtype=np.uint8)[None]), length)
        assert np.array_equal(unpacked(again.tobytes(), length), bits)


def test_packed_padding_must_be_zero():
    with pytest.raises(ShapeError, match="entry 0 has padding bits set"):
        checked_code_words(np.array([[0xFF]], dtype=np.uint8), 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_output_words_is_the_one_sign_rule(dtype):
    """A bit is set at +0.0 and at -0.0 and clear at the largest float below
    0, in float32 and float64 alike; every row is the oracle's code."""
    below_zero = np.nextafter(dtype(0.0), dtype(-1.0))
    assert below_zero < 0.0
    edge = np.array([[0.0, -0.0, below_zero]], dtype=dtype)
    assert word_bytes(output_words(edge), 3) == [packed([1, 1, -1])]
    h = np.random.default_rng(7).uniform(-1, 1, size=(6, 9)).astype(dtype)
    h[0, :3] = edge[0]
    assert word_bytes(output_words(h), 9) == [packed(binarize(row)) for row in h]


@pytest.mark.parametrize("length", [1, 8, 12, 13, 64, 65, 128])
def test_group_codes_matches_sorted_packed_bytes(length):
    # many bytes above 0x7f; codes that differ only in their last bit, hence
    # only in their last word; repeats
    rng = np.random.default_rng(length)
    h = rng.normal(size=(300, length))
    h[100:150, : length - 1] = 1.0
    h = h[rng.integers(300, size=400)]
    words = output_words(h)
    assert words.dtype == np.uint64 and words.shape == (len(h), -(-length // 64))
    order, starts = group_words(words)
    codes = pack_bits_batch(np.array([binarize(row) for row in h]))
    assert word_bytes(words, length) == codes
    keys = word_bytes(words[order[starts]], length)
    assert keys == sorted(set(codes))
    # stable: each distinct code's samples, in index order
    assert [g.tolist() for g in np.split(order, starts[1:])] == [
        [i for i, p in enumerate(codes) if p == key] for key in keys
    ]


@pytest.mark.parametrize("length", [1, 8, 12, 13, 64, 65, 128])
def test_code_words_xor_popcount_is_hamming_and_rows_order_as_bytes(length):
    rng = np.random.default_rng(length)
    bits = np.vstack([rng.choice([-1, 1], size=(12, length)), -np.ones(length), np.ones(length)])
    codes = [packed(row) for row in bits]
    rows = np.array([list(c) for c in codes], dtype=np.uint8)
    words = code_words(rows)
    assert words.dtype == np.uint64 and words.shape == (len(codes), -(-length // 64))
    assert word_bytes(words, length) == codes
    back = packed_rows(words, length)
    assert back.dtype == np.uint8 and np.array_equal(back, rows)
    for i, a in enumerate(bits):
        for j, b in enumerate(bits):
            assert int(np.bitwise_count(words[i] ^ words[j]).sum()) == hamming(a, b)
    by_words = sorted(range(len(codes)), key=lambda i: tuple(words[i].tolist()))
    by_bytes = sorted(range(len(codes)), key=lambda i: codes[i])
    assert by_words == by_bytes


# --- serialization (wire.py's value frames) ---

def test_serialize_roundtrip():
    params = tiny_params(seed=11, dims=(4, 5, 3))
    back = deserialize_params(serialize_params(params), params.layers)
    assert back.layers == params.layers
    assert np.array_equal(back.values, params.values)
    # the values as 32-bit reals and nothing else: the layers are agreed beforehand
    assert len(serialize_params(params)) == 4 * param_count(params)


def test_serialize_rejects_truncated():
    params = tiny_params()
    blob = serialize_params(params)
    with pytest.raises(ShapeError, match=f"value section has {len(blob) - 2} bytes, expected {len(blob)}"):
        deserialize_params(blob[:-2], params.layers)


def test_serialize_values_is_write_blob_with_its_trailer():
    params = tiny_params(seed=12, dims=(4, 5, 3))
    grad = np.random.default_rng(12).normal(size=param_count(params))
    trailer = b"\x3f\xe0\x00\x00\x00\x00\x00\x00"
    assert serialize_values(params, grad, trailer) == write_blob(grad, trailer)
    assert serialize_values(params, grad) == write_blob(grad)


@pytest.mark.parametrize("delta", [-1, 1])
def test_serialize_values_rejects_another_length(delta):
    params = tiny_params()
    n = param_count(params)
    with pytest.raises(ShapeError, match=rf"values have shape \({n + delta},\), expected \({n},\)"):
        serialize_values(params, np.zeros(n + delta))


def test_float32_grid_idempotent():
    v = np.array([0.1, 1.0 / 3.0, -2.5e-8])
    g = as_float32_grid(v)
    assert np.array_equal(g, as_float32_grid(g))
    assert g.dtype == np.float64


def _backward_of_a_wrong_shape():
    params = init_network(mlp_spec(3, (4,), 2), seed=0)
    _, trace = forward(params, np.zeros((5, 3)))
    backward(trace, np.zeros((5, 3)))


@pytest.mark.parametrize(
    "call, kind, message",
    [(lambda: LayerSpec(0, 2, "relu"), InvalidSpecError,
      r"layer dims must be positive: LayerSpec\(input_dim=0, output_dim=2, activation='relu'\)"),
     (lambda: LayerSpec(2, 2, "sigmoid"), InvalidSpecError, "unknown activation 'sigmoid'"),
     (lambda: NetworkParams(mlp_spec(3, (), 2), np.zeros(3)), ShapeError,
      r"values has length \(3,\), expected \(8,\)"),
     (lambda: param_count(()), InvalidSpecError, "layer list is empty"),
     (_backward_of_a_wrong_shape, ShapeError, r"grad_h has shape \(5, 3\), outputs have \(5, 2\)")],
    ids=["zero_width", "unknown_activation", "short_values", "no_layers", "backward_of_a_wrong_shape"],
)
def test_network_refuses_a_bad_layer_or_a_mismatched_shape(call, kind, message):
    with pytest.raises(kind, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [(lambda: mlp_spec(3.5, (), 2), "input_dim must be an integer, got 3.5"),
     (lambda: mlp_spec(3, (True,), 2), "output_dim must be an integer, got True"),
     (lambda: mlp_spec(3, (), "2"), "output_dim must be an integer, got '2'"),
     (lambda: LayerSpec(2.0, 2, "relu"), "input_dim must be an integer, got 2.0")],
    ids=["float_input_dim", "bool_hidden_width", "string_code_length", "float_layer_input"],
)
def test_layer_spec_refuses_widths_that_are_not_integers(call, message):
    with pytest.raises(InvalidSpecError, match=f"^{message}$"):
        call()


def test_layer_spec_takes_numpy_integers():
    spec = mlp_spec(np.int64(3), (np.int32(4),), np.int64(2))
    assert spec == mlp_spec(3, (4,), 2)
    assert np.array_equal(init_network(spec, 0).values, init_network(mlp_spec(3, (4,), 2), 0).values)
