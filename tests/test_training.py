import warnings

import numpy as np
import pytest

from hashclust.datasets import child_seed
from hashclust.errors import DegenerateHistoryWarning, InvalidSpecError, ShapeError
from hashclust.loss import LossConfig
from hashclust.network import (
    LayerSpec,
    NetworkParams,
    init_network,
    mlp_spec,
    param_count,
)
from hashclust.training import (
    TrainingConfig,
    global_merge,
    local_round,
    relative_error_ratio,
    train,
)

from oracles import batch_objective, finite_difference, kink_margin, merge_reference


def small_cfg(**kw):
    base = dict(
        n_rounds=3,
        n_sites=1,
        batch_size=8,
        learning_rate=0.05,
        loss=LossConfig(distance_scale=1.0, temperature=1.0),
        seed=0,
    )
    base.update(kw)
    return TrainingConfig(**base)


@pytest.mark.parametrize("batch_size", [1, 0, -3])
def test_config_rejects_a_batch_without_a_pair(batch_size):
    with pytest.raises(InvalidSpecError, match="a batch needs a pair"):
        small_cfg(batch_size=batch_size)
    small_cfg(batch_size=2)


@pytest.mark.parametrize("rate", [0.0, -0.05, float("nan"), float("inf")])
def test_config_rejects_a_learning_rate_that_is_not_positive_and_finite(rate):
    with pytest.raises(InvalidSpecError, match="^learning_rate must be a positive finite number"):
        small_cfg(learning_rate=rate)


# --- global_merge ---

def test_merge_hand_example():
    params = NetworkParams(layers=(LayerSpec(1, 1, "tanh"),), values=np.array([0.5, 0.25]))
    out = global_merge(params, [np.array([1.0, 1.0]), np.array([3.0, -1.0])], 0.5)
    assert np.array_equal(out.values, np.array([-0.5, 0.25]))  # theta - (1, 0)


def test_merge_single_site_plain_step():
    params = NetworkParams(layers=(LayerSpec(1, 1, "tanh"),), values=np.array([1.0, -2.0]))
    out = global_merge(params, [np.array([2.0, 4.0])], 0.25)
    assert np.array_equal(out.values, np.array([0.5, -3.0]))


def test_merge_zero_grads_bitwise_noop():
    params = init_network(mlp_spec(3, (4,), 2), 1)
    out = global_merge(params, [np.zeros(param_count(params))] * 3, 0.7)
    assert np.array_equal(out.values, params.values)


@pytest.mark.parametrize("n_sites", [1, 2, 3, 8])
def test_merge_equals_the_separate_array_expressions_bitwise(n_sites):
    params = init_network(mlp_spec(16, (32, 8), 12), 5)
    rng = np.random.default_rng(n_sites)
    grads = [rng.normal(scale=10.0 ** rng.integers(-6, 2), size=param_count(params)) for _ in range(n_sites)]
    for lr in (0.05, 0.7, 1e-3):
        out = global_merge(params, grads, lr)
        assert np.array_equal(out.values, merge_reference(params, grads, lr))


def test_merge_shape_error():
    params = NetworkParams(layers=(LayerSpec(1, 1, "tanh"),), values=np.array([0.0, 0.0]))
    with pytest.raises(ShapeError):
        global_merge(params, [np.zeros(3)], 0.1)


def test_merge_replicated_equals_single():
    params = init_network(mlp_spec(2, (3,), 2), 2)
    g = np.random.default_rng(0).normal(size=param_count(params))
    one = global_merge(params, [g], 0.1)
    five = global_merge(params, [g] * 5, 0.1)
    assert np.array_equal(one.values, five.values)


def test_merge_permutation_invariant_after_canonical_order():
    # summation happens in ascending site order before this test permutes
    params = init_network(mlp_spec(2, (3,), 2), 3)
    rng = np.random.default_rng(1)
    grads = [rng.normal(size=param_count(params)) for _ in range(4)]
    a = global_merge(params, grads, 0.05)
    b = global_merge(params, grads, 0.05)
    assert np.array_equal(a.values, b.values)


# --- local_round ---

def test_local_round_identical_samples_zero():
    params = init_network(mlp_spec(3, (4,), 2), 4)
    shard = np.tile(np.array([0.25, 0.5, 0.75]), (6, 1))
    grad, loss = local_round(shard, params, small_cfg())
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros(param_count(params)))


def test_local_round_two_sites_identical():
    params = init_network(mlp_spec(3, (4,), 2), 5)
    shard = np.random.default_rng(2).uniform(size=(10, 3))
    g1, l1 = local_round(shard, params, small_cfg(), round_index=3)
    g2, l2 = local_round(shard.copy(), params, small_cfg(), round_index=3)
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_local_round_rejects_tiny_shard():
    params = init_network(mlp_spec(2, (), 2), 6)
    with pytest.raises(ShapeError, match="^a shard needs at least 2 samples to form a pair$"):
        local_round(np.zeros((1, 2)), params, small_cfg())


@pytest.mark.parametrize("seed", range(4))
def test_local_round_gradient_matches_finite_differences(seed):
    """End-to-end objective gradient vs central differences.

    Batch size exceeds the shard so selection covers every sample and the
    objective is a fixed function of the parameters.
    """
    rng = np.random.default_rng(seed)
    cfg = small_cfg(batch_size=16, loss=LossConfig(rng.uniform(0.3, 2), rng.uniform(0.5, 2)))
    params = init_network(mlp_spec(3, (4,), 3), seed)
    for attempt in range(30):
        shard = rng.uniform(size=(6, 3))
        if kink_margin(params, shard, cfg.loss) > 1e-3:
            break
    else:
        pytest.skip("no kink-free sample found")
    grad, _ = local_round(shard, params, cfg)
    numeric = finite_difference(batch_objective(params, shard, cfg.loss), params.values)
    denom = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(grad - numeric) / denom) <= 1e-4


def test_only_batch_selection_runs_in_float32(monkeypatch):
    """Buckets come from a float32 pass; the batch forward, the loss, the
    backward, the codebook and the merge run in float64."""
    from hashclust import codebook, sampling, training
    from hashclust.loss import batch_loss
    from hashclust.network import forward

    passes, losses = [], []

    def recording(module):
        def wrapped(params, x, dtype=np.float64):
            h, trace = forward(params, x, dtype=dtype)
            passes.append((module.__name__, trace.inputs.dtype.name, h.dtype.name))
            return h, trace
        return wrapped

    def loss(bx, h, cfg):
        value, grad_h = batch_loss(bx, h, cfg)
        losses.append((h.dtype.name, grad_h.dtype.name))
        return value, grad_h

    for module in (sampling, training, codebook):
        monkeypatch.setattr(module, "forward", recording(module))
    monkeypatch.setattr(training, "batch_loss", loss)
    params = init_network(mlp_spec(3, (4,), 2), 7)
    shard = np.random.default_rng(8).uniform(size=(20, 3))
    grad, value = local_round(shard, params, small_cfg())
    codebook.encode_shard(params, shard)
    merged = global_merge(params, [grad], 0.05)
    assert passes == [
        ("hashclust.sampling", "float32", "float32"),
        ("hashclust.training", "float64", "float64"),
        ("hashclust.codebook", "float64", "float64"),
    ]
    assert losses == [("float64", "float64")]
    assert grad.dtype == np.float64 and grad.shape == params.values.shape
    assert type(value) is float
    assert merged.values.dtype == np.float64


# --- train ---

def test_train_zero_rounds():
    shards = [np.random.default_rng(3).uniform(size=(6, 2))]
    spec = mlp_spec(2, (3,), 2)
    cfg = small_cfg(n_rounds=0)
    params, losses = train(shards, spec, cfg)
    assert losses.shape == (0, 1)
    assert np.array_equal(params.values, init_network(spec, cfg.seed).values)


def test_train_identical_shards_equal_single_site():
    """M copies of one shard average to the single-site trajectory, bitwise."""
    rng = np.random.default_rng(5)
    shard = rng.uniform(size=(10, 3))
    spec = mlp_spec(3, (4,), 2)
    single, losses1 = train([shard], spec, small_cfg(n_rounds=4, n_sites=1))
    multi, losses4 = train([shard.copy() for _ in range(4)], spec, small_cfg(n_rounds=4, n_sites=4))
    assert np.array_equal(single.values, multi.values)
    assert (losses1.shape, losses4.shape) == ((4, 1), (4, 4))
    for site in range(4):
        assert np.array_equal(losses4[:, site], losses1[:, 0])


def test_train_reproducible():
    rng = np.random.default_rng(6)
    shards = [rng.uniform(size=(9, 2)) for _ in range(2)]
    spec = mlp_spec(2, (2,), 2)
    a, losses_a = train(shards, spec, small_cfg(n_sites=2))
    b, losses_b = train(shards, spec, small_cfg(n_sites=2))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(losses_a, losses_b)


def test_train_history_invariants():
    """Row r of the table is round r's local_round losses, in site order."""
    rng = np.random.default_rng(7)
    shards = [rng.uniform(size=(12, 2)) for _ in range(2)]
    spec, cfg = mlp_spec(2, (3,), 2), small_cfg(n_rounds=6, n_sites=2)
    _, losses = train(shards, spec, cfg)
    assert losses.dtype == np.float64 and losses.shape == (6, 2)
    params = init_network(spec, cfg.seed)
    for r in range(cfg.n_rounds):
        grads, row = zip(*(local_round(shard, params, cfg, round_index=r) for shard in shards))
        assert np.array_equal(losses[r], row)
        params = global_merge(params, grads, cfg.learning_rate)


def test_round_seed_derivation():
    assert child_seed(13, 2, np.uint64) == child_seed(13, 2, np.uint64)
    seeds = {child_seed(13, i, np.uint64) for i in range(50)}
    assert len(seeds) == 50


# --- RER ---

def one_site(losses):
    return np.array(losses)[:, None]


def test_rer_hand_example():
    rer = relative_error_ratio(one_site([4.0, 3.0, 2.0]))
    assert np.allclose(rer, [1.0, 0.5, 0.0], atol=1e-15)


def test_rer_extremes():
    rer = relative_error_ratio(one_site([2.0, 5.0, 3.0]))
    assert rer[np.argmin([2.0, 5.0, 3.0])] == 0.0
    assert rer[np.argmax([2.0, 5.0, 3.0])] == 1.0
    assert np.all((rer >= 0.0) & (rer <= 1.0))


def test_rer_degenerate_history_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rer = relative_error_ratio(one_site([1.5, 1.5, 1.5]))
    assert np.array_equal(rer, np.zeros(3))
    assert any(issubclass(w.category, DegenerateHistoryWarning) for w in caught)


def test_rer_averages_each_round_over_its_sites():
    losses = np.array([[4.0, 6.0], [1.0, 3.0], [3.0, 4.0]])  # round means 5, 2, 3.5
    assert np.array_equal(relative_error_ratio(losses), [1.0, 0.0, 0.5])


def test_rer_of_no_rounds_raises():
    with pytest.raises(ShapeError):
        relative_error_ratio(np.empty((0, 3)))


@pytest.mark.parametrize(
    "changes, message",
    [({"n_rounds": 2.5}, "n_rounds must be an integer, got 2.5"),
     ({"n_sites": 2.5}, "n_sites must be an integer, got 2.5"),
     ({"batch_size": 4.5}, "batch_size must be an integer, got 4.5"),
     ({"batch_size": True}, "batch_size must be an integer, got True"),
     ({"seed": 1.5}, "seed must be an integer, got 1.5"),
     ({"seed": -1}, "seed must be >= 0, got -1"),
     ({"n_rounds": -1}, "n_rounds must be >= 0"),
     ({"n_sites": 0}, "n_sites must be >= 1, got 0")],
)
def test_training_config_refuses_counts_and_seeds_that_are_not_nonnegative_integers(changes, message):
    with pytest.raises(InvalidSpecError, match=f"^{message}$"):
        small_cfg(**changes)


def test_training_config_takes_numpy_integers():
    cfg = small_cfg(n_rounds=np.int64(3), seed=np.uint32(7))
    assert cfg.n_rounds == 3 and cfg.seed == 7


def test_training_refuses_no_gradients_and_a_shard_count_unlike_the_config():
    params = init_network(mlp_spec(3, (), 2), seed=0)
    with pytest.raises(ShapeError, match="^no gradients to merge$"):
        global_merge(params, [], 0.05)
    with pytest.raises(InvalidSpecError, match="^config says 2 sites but 1 shards supplied$"):
        train([np.zeros((4, 3))], mlp_spec(3, (), 2), small_cfg(n_sites=2))
