"""The site step and the merge against their plain-array oracles, bit for bit.

Each rewritten step (the pair-loss scatter, backward into one flat vector,
the greedy batch selection, the one-pass merge) is fuzzed against the code it
replaced, and the bucket grouping against a grouping by Python sets and dicts,
all kept in ``tests/oracles.py``. Floats are compared as uint64 bit patterns,
so a -0.0 where the oracle has +0.0 fails.
"""

import numpy as np
import pytest

from hashclust.loss import LossConfig, batch_loss
from hashclust.network import LayerSpec, NetworkParams, backward, code_words, forward, param_count
from hashclust.sampling import BucketIndex, build_buckets, select_batch
from hashclust.training import global_merge

from oracles import (
    backward_reference,
    batch_loss_reference,
    build_buckets_reference,
    merge_reference,
    select_batch_reference,
)

CASES = 1200


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def pick(rng, forced, low, high):
    """One of ``forced`` half the time, else uniform in [low, high]."""
    return forced[rng.integers(len(forced))] if rng.random() < 0.5 else int(rng.integers(low, high + 1))


def with_signed_zeros(rng, a, share=0.2):
    """``a`` with a share of its entries set to +0.0 or -0.0."""
    a = a.copy()
    mask = rng.random(a.shape) < share
    a[mask] = np.where(rng.random(int(mask.sum())) < 0.5, 0.0, -0.0)
    return a


def test_batch_loss_matches_the_add_at_scatter():
    rng = np.random.default_rng(0)
    for case in range(CASES):
        n = pick(rng, (2, 31), 2, 40)
        length = pick(rng, (1, 70), 1, 24)
        dim = int(rng.integers(1, 9))
        x = rng.random((n, dim))
        h = np.tanh(rng.normal(size=(n, length)))
        if case % 3 == 0:  # repeated samples: zero input distances, exact gaps of 0
            src = rng.integers(n, size=n)
            x, h = x[src], h[src]
        if case % 4 == 0:  # few distinct outputs: zero differences and tied gaps
            h = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(n, length))
        h = with_signed_zeros(rng, h, share=0.1 * (case % 2))
        cfg = LossConfig(distance_scale=float(rng.choice([0.5, 1.0, 2.0])),
                         temperature=float(rng.choice([0.25, 1.0, 4.0])))
        loss, grads = batch_loss(x, h, cfg)
        want_loss, want = batch_loss_reference(x, h, cfg)
        assert bits(loss) == bits(want_loss), case
        assert np.array_equal(bits(grads), bits(want)), case


def random_trace(rng, case):
    length = pick(rng, (1, 70), 1, 12)
    depth = int(rng.integers(0, 3))
    dims = [int(rng.integers(1, 10)) for _ in range(depth + 1)] + [length]
    if case % 50 == 0:  # a layer large enough for a blocked BLAS product
        dims[0] = 300
    layers = tuple(LayerSpec(a, b, "relu") for a, b in zip(dims[:-2], dims[1:-1]))
    layers += (LayerSpec(dims[-2], length, "tanh"),)
    values = with_signed_zeros(rng, rng.normal(size=param_count(layers)).astype(np.float32).astype(np.float64))
    n = pick(rng, (2, 31), 1, 40)
    x = with_signed_zeros(rng, rng.normal(size=(n, dims[0])))
    _, trace = forward(NetworkParams(layers, values), x)
    return trace, with_signed_zeros(rng, rng.normal(size=(n, length)), share=0.3)


def test_backward_matches_the_concatenated_layers():
    rng = np.random.default_rng(1)
    for case in range(CASES):
        trace, grad_h = random_trace(rng, case)
        assert np.array_equal(bits(backward(trace, grad_h)), bits(backward_reference(trace, grad_h))), case


def test_build_buckets_matches_grouping_by_packed_code():
    rng = np.random.default_rng(3)
    for case in range(300):
        trace, _ = random_trace(rng, case)
        params = NetworkParams(trace.layers, np.concatenate(
            [np.concatenate([w.ravel(), rng.normal(size=w.shape[1])]) for w in trace.weights]))
        x = trace.inputs
        if case % 4 == 0:  # zero outputs, whose bits are set, and repeated samples
            params.values[:] = 0.0
            x = x[rng.integers(len(x), size=len(x))]
        got, want = build_buckets(params, x), build_buckets_reference(params, x)
        assert np.array_equal(got.codes, want.codes), case
        assert [m.tolist() for m in got.members] == [m.tolist() for m in want.members], case


def random_buckets(rng, case):
    length = pick(rng, (1, 70), 1, 20)
    # a single bucket every fifth case; short codes give many tied distance sums
    n_buckets = 1 if case % 5 == 0 else int(rng.integers(1, 13))
    bits_drawn = rng.integers(0, 2, size=(4 * n_buckets, length), dtype=np.uint8)
    packed = np.unique(np.packbits(bits_drawn, axis=1), axis=0)[:n_buckets]
    sizes = rng.integers(1, 6, size=len(packed))
    if case % 3 == 1 and len(sizes) > 3:  # empty buckets: the first, a middle one, the last or all three
        sizes[[[0], [len(sizes) // 2], [-1], [0, len(sizes) // 2, -1]][case // 3 % 4]] = 0
    if case % 10 == 3:  # one bucket of at least 100 members
        sizes[rng.integers(len(sizes))] = rng.integers(100, 300)
    order = rng.permutation(int(sizes.sum()))
    members = tuple(np.split(order, np.cumsum(sizes)[:-1]))
    if case % 4 == 2:  # members as Python lists, as a caller may build them
        members = tuple(m.tolist() for m in members)
    return BucketIndex(codes=code_words(packed), members=members)


def test_select_batch_matches_the_list_per_pick_selection():
    rng = np.random.default_rng(2)
    for case in range(CASES):
        buckets = random_buckets(rng, case)
        n = int(buckets.sizes().sum())
        batch_size = int(rng.integers(1, n + 4))
        seed = int(rng.integers(2 ** 32))
        given = [np.array(m) for m in buckets.members]
        got = select_batch(buckets, batch_size, seed)
        assert all(np.array_equal(m, g) for m, g in zip(buckets.members, given)), case
        assert got.tolist() == select_batch_reference(buckets, batch_size, seed).tolist(), case


def big_endian_views(grads) -> list:
    """Each gradient as the wire decodes it: a big-endian float32 view of a buffer."""
    return [np.frombuffer(bytearray(np.asarray(g).astype(">f4").tobytes()), dtype=">f4") for g in grads]


# a 1 -> width tanh layer has 2 * width parameters: 2 to 100,000, up to near
# the 135,696 of the wire benchmark's network
@pytest.mark.parametrize("width", [1, 3, 16384, 16385, 50000])
def test_merge_matches_the_separate_array_expressions(width):
    rng = np.random.default_rng(width)
    layers = (LayerSpec(1, width, "tanh"),)
    n = 2 * width
    for case in range(300 if width < 1000 else 8):
        values = with_signed_zeros(rng, rng.normal(size=n).astype(np.float32).astype(np.float64))
        params = NetworkParams(layers, values)
        grads = [with_signed_zeros(rng, rng.normal(scale=10.0 ** rng.integers(-8, 2), size=n), share=0.3)
                 for _ in range(int(rng.integers(1, 5)))]
        if case % 4 == 0:
            grads[0] = np.full(n, -0.0)
        lr = float(rng.choice([0.05, 0.7, 1e-3]))
        want = bits(merge_reference(params, grads, lr))
        assert np.array_equal(bits(global_merge(params, grads, lr).values), want), case
        assert np.array_equal(bits(global_merge(params, big_endian_views(grads), lr).values), want), case
