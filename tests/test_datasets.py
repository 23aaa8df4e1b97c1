import dataclasses
import re

import numpy as np
import pytest

from hashclust.datasets import (
    ClusterSpec,
    Shard,
    child_seed,
    gen_cluster,
    gen_dataset,
    load_csv,
    make_dataset_spec,
    make_shard,
    save_csv,
    shard_dataset,
)
from hashclust.errors import InvalidSpecError, ShapeError

from conftest import BAD_SEEDS


def replay_transform_and_shift(spec: ClusterSpec):
    """Re-draw T and u with the documented draw order, independently."""
    rng = np.random.default_rng(spec.seed)
    t = rng.standard_normal((spec.ambient_dim, spec.embed_dim))
    t = t / np.linalg.norm(t)
    r = 20.0 / np.log(spec.ambient_dim)
    u = rng.uniform(-r, r, size=spec.ambient_dim)
    return t, u


# --- gen_cluster ---

def test_transform_frobenius_normalized():
    spec = ClusterSpec(ambient_dim=6, embed_dim=3, n_samples=5, seed=42)
    t, _ = replay_transform_and_shift(spec)
    assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-12)


def test_shift_within_log_bound():
    for seed in range(20):
        spec = ClusterSpec(ambient_dim=16, embed_dim=2, n_samples=1, seed=seed)
        _, u = replay_transform_and_shift(spec)
        bound = 20.0 / np.log(16)
        assert np.all(np.abs(u) <= bound)


def test_sample_mean_approaches_shift():
    """Monte-Carlo: E[Tz + u + e] = u, checked at 3 standard errors."""
    spec = ClusterSpec(ambient_dim=4, embed_dim=2, n_samples=100_000, seed=7)
    x = gen_cluster(spec)
    _, u = replay_transform_and_shift(spec)
    std = x.std(axis=0, ddof=1)
    stderr = std / np.sqrt(spec.n_samples)
    assert np.all(np.abs(x.mean(axis=0) - u) <= 3.0 * stderr)


def test_cluster_deterministic():
    spec = ClusterSpec(ambient_dim=5, embed_dim=2, n_samples=50, seed=3)
    assert np.array_equal(gen_cluster(spec), gen_cluster(spec))


def test_cluster_noise_scale():
    # residual variance off the embedding plane is 1/(10*ambient) per coord
    spec = ClusterSpec(ambient_dim=8, embed_dim=1, n_samples=200_000, seed=11)
    x = gen_cluster(spec)
    t, u = replay_transform_and_shift(spec)
    centered = x - u
    direction = t[:, 0] / np.linalg.norm(t[:, 0])
    residual = centered - np.outer(centered @ direction, direction)
    observed = residual.var(axis=0, ddof=1).mean()
    expected = (1.0 / 80.0) * (7.0 / 8.0)  # one direction removed
    assert observed == pytest.approx(expected, rel=0.05)


def test_cluster_spec_validation():
    with pytest.raises(InvalidSpecError):
        ClusterSpec(ambient_dim=1, embed_dim=1, n_samples=5, seed=0)
    with pytest.raises(InvalidSpecError):
        ClusterSpec(ambient_dim=4, embed_dim=5, n_samples=5, seed=0)
    with pytest.raises(InvalidSpecError):
        ClusterSpec(ambient_dim=4, embed_dim=2, n_samples=0, seed=0)


# --- gen_dataset ---

def test_dataset_two_clusters():
    spec = make_dataset_spec(2, 4, 2, 100, seed=0)
    x, labels = gen_dataset(spec)
    assert x.shape == (200, 4)
    assert np.bincount(labels).tolist() == [100, 100]


def test_dataset_varied_embed_dims():
    # scaled-down version of the layered config: 6 embed dims x 20 clusters
    clusters = tuple(
        ClusterSpec(ambient_dim=64, embed_dim=e, n_samples=2, seed=child_seed(1, i))
        for i, e in enumerate(d for d in (2, 4, 8, 16, 32, 64) for _ in range(20))
    )
    x, labels = gen_dataset(clusters)
    assert len(clusters) == 120
    assert x.shape == (240, 64)
    assert labels.max() == 119


def test_dataset_empty_rejected():
    with pytest.raises(InvalidSpecError, match="^dataset needs at least one cluster$"):
        gen_dataset(())


def test_dataset_mixed_ambient_rejected():
    a = ClusterSpec(ambient_dim=4, embed_dim=2, n_samples=3, seed=0)
    b = ClusterSpec(ambient_dim=5, embed_dim=2, n_samples=3, seed=1)
    with pytest.raises(InvalidSpecError, match=r"^clusters disagree on ambient_dim: \[4, 5\]$"):
        gen_dataset((a, b))


def test_distinct_cluster_seeds_distinct_transforms():
    mats = [replay_transform_and_shift(c)[0] for c in make_dataset_spec(3, 4, 2, 5, seed=9)]
    assert not np.array_equal(mats[0], mats[1])
    assert not np.array_equal(mats[1], mats[2])


# --- sharding ---

def test_shard_single_site_gets_everything():
    x = np.random.default_rng(0).normal(size=(30, 3))
    labels = np.arange(30) % 2
    shards = shard_dataset(x, labels, 1, min_per_site=5, seed=0)
    assert len(shards) == 1
    assert len(shards[0]) == 30


def normalize(rows):
    """Min-max scale each column of ``rows`` by its own minimum and range."""
    low = rows.min(axis=0)
    span = rows.max(axis=0) - low
    return (rows - low) / np.where(span > 0, span, 1.0)


def test_shards_partition_dataset():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(57, 2))
    # each label is its row's index, so a shard's labels say which rows it holds
    shards = shard_dataset(x, np.arange(57), 3, min_per_site=10, seed=4)
    assert np.array_equal(np.sort(np.concatenate([s.labels for s in shards])), np.arange(57))
    for shard in shards:
        assert np.array_equal(shard.x, normalize(x[shard.labels]))


def test_shard_min_size_respected():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(230, 2))
    labels = rng.integers(0, 2, 230)
    for seed in range(10):
        shards = shard_dataset(x, labels, 4, min_per_site=50, seed=seed)
        assert all(len(s) >= 50 for s in shards)


def test_shard_infeasible():
    x = np.zeros((99, 2))
    with pytest.raises(InvalidSpecError, match=r"^99 samples cannot cover 2 sites at >= 50 each$"):
        shard_dataset(x, np.zeros(99, dtype=int), 2, min_per_site=50, seed=0)


@pytest.mark.parametrize("min_per_site, n_sites, seed", [(0, 40, 3), (-30, 4, 2)])
def test_shard_min_below_one_is_refused(min_per_site, n_sites, seed):
    # either would leave some site an empty shard
    with pytest.raises(InvalidSpecError, match=f"min_per_site must be >= 1, got {min_per_site}"):
        shard_dataset(np.arange(40.0)[:, None], np.zeros(40, dtype=int), n_sites, min_per_site, seed)


@pytest.mark.parametrize("n_labels", [50, 150], ids=["fewer_labels", "more_labels"])
def test_shard_refuses_features_and_labels_of_different_lengths(n_labels):
    # fewer labels would index past their end, more would be dropped unread
    x = np.arange(200.0).reshape(100, 2)
    with pytest.raises(ShapeError, match=f"^features/labels disagree: 100 vs {n_labels}$"):
        shard_dataset(x, np.zeros(n_labels, dtype=int), 2, min_per_site=10, seed=0)


def test_shard_refuses_a_feature_whose_range_overflows():
    # each value is finite, but 1e308 - (-1e308) is not
    x = np.zeros((200, 3))
    x[:, 0] = np.arange(200.0)
    x[::2, 2], x[1::2, 2] = 1e308, -1e308
    with pytest.raises(ShapeError, match=r"^feature 2 spans -1e\+308 to 1e\+308: its range is not a finite number$"):
        shard_dataset(x, np.zeros(200, dtype=int), 2, min_per_site=50, seed=0)


def test_shard_keeps_a_finite_range_up_to_the_largest_float():
    big = np.finfo(np.float64).max
    x = np.array([[0.0, -big / 2], [big, big / 2], [1.0, 0.0]])
    shard = make_shard(x, np.zeros(3, dtype=int), 0)
    # both ranges are exactly big, so nothing overflows and nothing is clipped
    assert np.array_equal(shard.x, [[0.0, 0.0], [1.0, 1.0], [1.0 / big, 0.5]])
    assert np.array_equal(shard.x, normalize(x))


def test_shard_refuses_an_empty_feature_table():
    with pytest.raises(ShapeError, match=r"^a shard needs at least one sample, got none$"):
        make_shard(np.zeros((0, 3)), np.zeros(0), 0)


def test_shard_deterministic():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 2))
    labels = rng.integers(0, 2, 40)
    a = shard_dataset(x, labels, 2, min_per_site=10, seed=8)
    b = shard_dataset(x, labels, 2, min_per_site=10, seed=8)
    for s, t in zip(a, b):
        assert np.array_equal(s.x, t.x)
        assert np.array_equal(s.labels, t.labels)


# --- normalization ---

def test_shard_normalization_unit_box():
    rng = np.random.default_rng(4)
    shard = make_shard(rng.normal(size=(20, 3)) * 5 + 2, np.zeros(20, dtype=int), 0)
    z = shard.normalized
    assert np.all(z >= 0.0) and np.all(z <= 1.0)
    assert np.allclose(z.min(axis=0), 0.0)
    assert np.allclose(z.max(axis=0), 1.0)


def test_shard_normalized_is_one_read_only_array():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 4)) * 3 - 1
    x[:, 2] = 7.0
    shard = make_shard(x, np.zeros(30, dtype=int), 0)
    z = shard.normalized
    assert z is shard.x and shard.normalized is z
    assert not z.flags.writeable
    with pytest.raises(ValueError):
        z[0, 0] = 0.5
    assert [f.name for f in dataclasses.fields(Shard)] == ["x", "labels", "site_index"]
    assert np.array_equal(z, normalize(x))


def test_shard_constant_feature_maps_to_zero():
    x = np.column_stack([np.full(6, 3.5), np.arange(6.0)])
    shard = make_shard(x, np.zeros(6, dtype=int), 0)
    assert np.all(shard.normalized[:, 0] == 0.0)


def test_normalization_constants_are_local():
    x = np.array([[0.0, 10.0], [1.0, 20.0], [0.5, 15.0]])
    shard = make_shard(x, np.zeros(3, dtype=int), 2)
    assert np.array_equal(shard.x, [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    assert shard.site_index == 2
    # the same rows in other shards are scaled by those shards' rows alone
    assert np.array_equal(make_shard(x[1:], np.zeros(2, dtype=int), 0).x, [[1.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(make_shard(x[2:], np.zeros(1, dtype=int), 0).x, [[0.0, 0.0]])


@pytest.mark.parametrize("seed", range(5))
def test_make_shard_leaves_its_input_and_spans_exactly_zero_to_one(seed):
    rng = np.random.default_rng(seed)
    big = np.finfo(np.float64).max
    n = 40
    x = np.column_stack([
        np.full(n, rng.normal()),  # constant
        1.0 + rng.integers(0, 4, n) * np.finfo(np.float64).eps,  # a range of a few ulps
        rng.integers(1, 7, n) * 5e-324,  # subnormal values, a range of a few of the least float
        rng.uniform(-big / 2, big / 2, n),  # a range near the largest float
        rng.normal(size=n) * 1e3,
    ])
    x[0, 3], x[1, 3] = -big / 2, big / 2
    before = x.copy()
    shard = make_shard(x, np.zeros(n, dtype=int), 0)
    assert np.array_equal(x, before)
    assert shard.x is not x
    assert np.array_equal(shard.x.min(axis=0), np.zeros(5))
    assert np.array_equal(shard.x.max(axis=0), [0.0, 1.0, 1.0, 1.0, 1.0])


# --- csv ---

def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(12, 3))
    labels = rng.integers(0, 4, 12)
    path = tmp_path / "data.csv"
    save_csv(path, x, labels)
    header = path.read_text().splitlines()[0]
    assert header == "f0,f1,f2,label"
    x2, labels2 = load_csv(path)
    assert np.array_equal(x, x2)
    assert np.array_equal(labels, labels2)


def test_csv_regeneration_byte_identical(tmp_path):
    spec = make_dataset_spec(2, 4, 2, 25, seed=6)
    x, labels = gen_dataset(spec)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    save_csv(p1, x, labels)
    save_csv(p2, *gen_dataset(spec))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n1,2,0\n")
    with pytest.raises(ShapeError):
        load_csv(path)


@pytest.mark.parametrize(
    "rows, message",
    [("1.0,2.0,0\n1.0,abc,1\n", "row 3 field f1 is 'abc', not a number"),
     ("1.0,2.0,1.5\n", "row 2 field label is '1.5', not an integer"),
     ("1.0,2.0,0\n1.0,nan,1\n", "row 3 field f1 is 'nan', not a finite number"),
     ("1.0,2.0,0\ninf,2.0,1\n", "row 3 field f0 is 'inf', not a finite number"),
     ("1.0,2.0,0\n1.0,2.0,1\n1.0,-inf,1\n", "row 4 field f1 is '-inf', not a finite number"),
     ("1.0,2.0,0\n1.0,2.0,99999999999999999999\n",
      "row 3 field label is '99999999999999999999', not an int64 integer"),
     ("1.0,2.0,-9223372036854775809\n", "row 2 field label is '-9223372036854775809', not an int64 integer")],
    ids=["feature", "label", "nan", "inf", "-inf", "label-above-int64", "label-below-int64"],
)
def test_csv_names_the_field_that_does_not_parse(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n" + rows)
    with pytest.raises(ShapeError, match=message):
        load_csv(path)


def test_csv_takes_labels_at_the_int64_bounds(tmp_path):
    path = tmp_path / "bounds.csv"
    path.write_text("f0,label\n1.0,9223372036854775807\n2.0,-9223372036854775808\n")
    _, labels = load_csv(path)
    assert labels.tolist() == [2**63 - 1, -2**63]


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,1\n")
    with pytest.raises(ShapeError):
        load_csv(path)


def _header_only_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("f0,label\n")
    return path


@pytest.mark.parametrize(
    "call, kind, message",
    [(lambda tmp: make_dataset_spec(0, 4, 2, 10, seed=0), InvalidSpecError, "n_clusters must be >= 1, got 0"),
     (lambda tmp: make_shard(np.zeros(3), np.zeros(3), 0), ShapeError, r"shard features must be 2-d, got shape \(3,\)"),
     (lambda tmp: make_shard(np.zeros((3, 2)), np.zeros(2), 0), ShapeError, "features/labels disagree: 3 vs 2"),
     (lambda tmp: shard_dataset(np.zeros((3, 2)), np.zeros(3), 0, 1, 0), InvalidSpecError, "n_sites must be >= 1, got 0"),
     (lambda tmp: save_csv(tmp / "x.csv", np.zeros((3, 2)), np.zeros(2)), ShapeError,
      "features/labels disagree: 3 vs 2"),
     (lambda tmp: load_csv(_header_only_csv(tmp)), ShapeError, ".*empty.csv: no data rows")],
    ids=["no_clusters", "shard_of_1d_features", "shard_of_fewer_labels", "no_sites", "csv_of_fewer_labels",
         "csv_of_no_rows"],
)
def test_datasets_refuse_an_empty_or_mismatched_input(tmp_path, call, kind, message):
    with pytest.raises(kind, match=f"^{message}$"):
        call(tmp_path)


@pytest.mark.parametrize(
    "n_sites, min_per_site, message",
    [(2.5, 10, "n_sites must be an integer, got 2.5"),
     (True, 10, "n_sites must be an integer, got True"),
     (2, 2.5, "min_per_site must be an integer, got 2.5"),
     (2, "10", "min_per_site must be an integer, got '10'")],
)
def test_shard_refuses_counts_that_are_not_integers(n_sites, min_per_site, message):
    with pytest.raises(InvalidSpecError, match=f"^{message}$"):
        shard_dataset(np.arange(80.0).reshape(40, 2), np.zeros(40, dtype=int), n_sites, min_per_site, 0)


def test_shard_takes_numpy_integer_counts():
    x = np.arange(80.0).reshape(40, 2)
    shards = shard_dataset(x, np.arange(40), np.int64(2), np.int32(10), np.uint64(9))
    expect = shard_dataset(x, np.arange(40), 2, 10, 9)
    assert all(np.array_equal(s.labels, t.labels) for s, t in zip(shards, expect))


@pytest.mark.parametrize(
    "call, message",
    [(lambda: make_dataset_spec(3, 6.0, 2, 40, seed=0), "ambient_dim must be an integer, got 6.0"),
     (lambda: make_dataset_spec(3, 6, True, 40, seed=0), "embed_dim must be an integer, got True"),
     (lambda: make_dataset_spec(3, 6, 2, "40", seed=0), "n_samples must be an integer, got '40'"),
     (lambda: make_dataset_spec(3.0, 6, 2, 40, seed=0), "n_clusters must be an integer, got 3.0"),
     (lambda: make_dataset_spec(True, 6, 2, 40, seed=0), "n_clusters must be an integer, got True"),
     (lambda: make_dataset_spec("3", 6, 2, 40, seed=0), "n_clusters must be an integer, got '3'"),
     (lambda: ClusterSpec(ambient_dim=6, embed_dim=2, n_samples=40, seed=1.5), "seed must be an integer, got 1.5")],
    ids=["float_ambient_dim", "bool_embed_dim", "string_n_samples",
         "float_n_clusters", "bool_n_clusters", "string_n_clusters", "float_seed"],
)
def test_dataset_spec_refuses_sizes_that_are_not_integers(call, message):
    with pytest.raises(InvalidSpecError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("seed, message", BAD_SEEDS)
def test_dataset_spec_refuses_a_seed_that_is_not_a_nonnegative_integer(seed, message):
    with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
        make_dataset_spec(3, 6, 2, 40, seed=seed)


@pytest.mark.parametrize("seed, message", BAD_SEEDS)
def test_cluster_spec_refuses_a_seed_that_is_not_a_nonnegative_integer(seed, message):
    with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
        ClusterSpec(6, 2, 40, seed=seed)


@pytest.mark.parametrize("seed, message", BAD_SEEDS)
def test_shard_refuses_a_seed_that_is_not_a_nonnegative_integer(seed, message):
    with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
        shard_dataset(np.arange(20.0).reshape(10, 2), np.zeros(10, dtype=int), 2, 5, seed)


def test_dataset_spec_takes_numpy_integers():
    clusters = make_dataset_spec(np.int64(3), np.int32(6), np.int64(2), np.int16(40), seed=np.uint32(0))
    assert ClusterSpec(6, 2, 40, seed=np.int64(7)) == ClusterSpec(6, 2, 40, seed=7)
    assert clusters == make_dataset_spec(3, 6, 2, 40, seed=0)
    assert np.array_equal(gen_dataset(clusters)[0], gen_dataset(make_dataset_spec(3, 6, 2, 40, seed=0))[0])


def test_save_csv_refuses_features_that_are_not_a_matrix(tmp_path):
    path = tmp_path / "flat.csv"
    with pytest.raises(ShapeError, match=r"^samples must be a 2-D array, got shape \(4,\)$"):
        save_csv(path, np.zeros(4), np.zeros(4, dtype=int))
    assert not path.exists()
