import re

import numpy as np
import pytest

from hashclust.errors import InvalidSpecError, ShapeError
from hashclust.network import (
    LayerSpec,
    NetworkParams,
    code_words,
    init_network,
    mlp_spec,
)
from hashclust.sampling import BucketIndex, build_buckets, select_batch

from conftest import BAD_COUNTS, BAD_SEEDS
from oracles import binarize, hamming_sum, pack_bits_batch, packed, unpacked, word_bytes


def zero_net(dim, code_length):
    spec = mlp_spec(dim, (), code_length)
    params = init_network(spec, 0)
    return NetworkParams(layers=params.layers, values=np.zeros_like(params.values))


def cube_buckets(per_bucket=1):
    """One bucket per vertex of the L=3 cube, in packed order."""
    bits = np.array(
        [[a, b, c] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)], dtype=np.int8
    )
    codes = pack_bits_batch(bits)
    order = np.argsort(codes)
    members = []
    idx = 0
    for _ in range(8):
        members.append(list(range(idx, idx + per_bucket)))
        idx += per_bucket
    rows = np.frombuffer(b"".join(codes), dtype=np.uint8).reshape(8, 1)
    return BucketIndex(codes=code_words(rows[order]), members=tuple(members))


# --- build_buckets ---

def test_zero_network_single_bucket():
    params = zero_net(2, 4)
    x = np.random.default_rng(0).normal(size=(9, 2))
    buckets = build_buckets(params, x)
    assert len(buckets.members) == 1
    assert word_bytes(buckets.codes, 4) == [packed([1, 1, 1, 1])]
    assert sorted(buckets.members[0]) == list(range(9))


def test_single_sample_single_bucket():
    params = init_network(mlp_spec(3, (3,), 4), 1)
    buckets = build_buckets(params, np.zeros((1, 3)))
    assert buckets.sizes().tolist() == [1]


def test_buckets_partition_the_shard():
    params = init_network(mlp_spec(4, (6,), 5), 2)
    x = np.random.default_rng(3).normal(size=(40, 4))
    buckets = build_buckets(params, x)
    seen = sorted(i for m in buckets.members for i in m)
    assert seen == list(range(40))
    # bucket codes really are the samples' codes, those of their float32 outputs
    from hashclust.network import forward

    h, _ = forward(params, x, dtype=np.float32)
    codes = pack_bits_batch(np.array([binarize(row) for row in h]))
    for code, members in zip(word_bytes(buckets.codes, 5), buckets.members):
        for i in members:
            assert codes[i] == code


def test_build_buckets_empty_shard():
    params = zero_net(2, 3)
    with pytest.raises(ShapeError, match="^cannot bucket an empty shard$"):
        build_buckets(params, np.zeros((0, 2)))


# --- select_batch: cube examples ---

def test_cube_second_pick_is_opposite_vertex():
    """First pick at (+1,+1,+1) forces the second from (-1,-1,-1)."""
    buckets = cube_buckets()
    target_first = packed([1, 1, 1])
    antipode = packed([-1, -1, -1])
    codes = word_bytes(buckets.codes, 3)
    seen = 0
    for seed in range(200):
        picks = select_batch(buckets, 2, seed)
        first_code = next(p for p, m in zip(codes, buckets.members) if picks[0] in m)
        if first_code != target_first:
            continue
        seen += 1
        second_code = next(p for p, m in zip(codes, buckets.members) if picks[1] in m)
        assert second_code == antipode
    assert seen > 0  # the conditioning event actually occurred


def test_cube_third_pick_summed_distance_three():
    """After two opposite picks every remaining vertex scores 3."""
    buckets = cube_buckets()
    code_bits = [unpacked(c, 3) for c in word_bytes(buckets.codes, 3)]
    for seed in range(50):
        picks = select_batch(buckets, 3, seed)
        bits = [
            next(code_bits[i] for i in range(8) if picks[j] in buckets.members[i])
            for j in range(3)
        ]
        if hamming_sum(bits[1], [bits[0]]) != 3:
            continue  # only condition on opposite first two
        assert hamming_sum(bits[2], bits[:2]) == 3


def test_single_bucket_uniform_without_replacement():
    params = zero_net(2, 3)
    x = np.random.default_rng(5).normal(size=(10, 2))
    buckets = build_buckets(params, x)
    picks = select_batch(buckets, 6, 42)
    assert len(picks) == len(set(picks)) == 6
    assert set(picks) <= set(range(10))


def test_batch_larger_than_shard_returns_all():
    params = zero_net(2, 3)
    x = np.random.default_rng(6).normal(size=(5, 2))
    buckets = build_buckets(params, x)
    picks = select_batch(buckets, 50, 0)
    assert sorted(picks) == list(range(5))


def test_select_deterministic():
    params = init_network(mlp_spec(3, (5,), 4), 7)
    x = np.random.default_rng(7).normal(size=(30, 3))
    buckets = build_buckets(params, x)
    a = select_batch(buckets, 12, 99)
    b = select_batch(buckets, 12, 99)
    assert np.array_equal(a, b)


def test_no_duplicate_indices():
    params = init_network(mlp_spec(3, (4,), 3), 8)
    x = np.random.default_rng(8).normal(size=(25, 3))
    buckets = build_buckets(params, x)
    for seed in range(20):
        picks = select_batch(buckets, 15, seed)
        assert len(picks) == len(set(picks.tolist()))


def test_argmax_property_with_tie_break():
    """Replay the greedy selection and check every pick maximized the score.

    Ties must resolve to the smallest packed code among the maximizers,
    and duplicate prior codes count once per pick.
    """
    params = init_network(mlp_spec(4, (5,), 4), 9)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(40, 4))
    buckets = build_buckets(params, x)
    codes = word_bytes(buckets.codes, 4)
    code_bits = [unpacked(c, 4) for c in codes]
    assert codes == sorted(codes)
    code_of = {}
    for b, members in enumerate(buckets.members):
        for i in members:
            code_of[i] = b
    for seed in range(15):
        picks = select_batch(buckets, 20, seed)
        remaining = [len(m) for m in buckets.members]
        prior_bits = []
        for step, idx in enumerate(picks):
            b = code_of[idx]
            if step > 0:
                scores = {
                    j: hamming_sum(code_bits[j], prior_bits)
                    for j in range(len(buckets.members))
                    if remaining[j] > 0
                }
                best = max(scores.values())
                assert scores[b] == best
                winners = [j for j, s in scores.items() if s == best]
                assert codes[b] == min(codes[j] for j in winners)
            prior_bits.append(code_bits[b])
            remaining[b] -= 1


def test_select_batch_empty_buckets():
    params = zero_net(2, 3)
    x = np.zeros((1, 2))
    buckets = build_buckets(params, x)
    empty = BucketIndex(codes=np.zeros((0, 1), dtype=np.uint64), members=())
    with pytest.raises(ShapeError, match="^no samples to select from$"):
        select_batch(empty, 3, 0)
    # sanity: the nonempty one works
    assert select_batch(buckets, 1, 0).tolist() == [0]


@pytest.mark.parametrize("batch_size", [0, -1])
def test_select_batch_rejects_batch_size_below_one(batch_size):
    buckets = build_buckets(zero_net(2, 3), np.zeros((1, 2)))
    with pytest.raises(InvalidSpecError, match=f"^batch_size must be >= 1, got {batch_size}$"):
        select_batch(buckets, batch_size, 0)


@pytest.mark.parametrize("batch_size, message", BAD_COUNTS)
def test_select_batch_refuses_a_batch_size_that_is_not_an_integer(batch_size, message):
    buckets = build_buckets(zero_net(2, 3), np.zeros((4, 2)))
    with pytest.raises(InvalidSpecError, match=f"^batch_size {re.escape(message)}$"):
        select_batch(buckets, batch_size, 0)


@pytest.mark.parametrize("seed, message", BAD_SEEDS)
def test_select_batch_refuses_a_seed_that_is_not_a_nonnegative_integer(seed, message):
    buckets = build_buckets(zero_net(2, 3), np.zeros((4, 2)))
    with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
        select_batch(buckets, 2, seed)


def test_select_batch_takes_numpy_integers():
    buckets = cube_buckets(per_bucket=3)
    expect = select_batch(buckets, 5, 7)
    for batch_size, seed in [(np.int64(5), np.uint64(7)), (np.int32(5), np.uint32(7))]:
        assert np.array_equal(select_batch(buckets, batch_size, seed), expect)
