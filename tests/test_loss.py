import numpy as np
import pytest

from hashclust.errors import InvalidSpecError, ShapeError
from hashclust.loss import LossConfig, batch_loss

from oracles import finite_difference, pair_loss_discrete, pair_loss_grad, pair_loss_relaxed


CFG11 = LossConfig(distance_scale=1.0, temperature=1.0)


def code(*bits):
    return np.array(bits, dtype=np.int8)


# --- discrete form ---

def test_discrete_zero_for_identical_pair():
    x = np.array([1.0, 2.0])
    c = code(1, -1, 1)
    assert pair_loss_discrete(x, x, c, c, CFG11) == 0.0


def test_discrete_hand_example_same_codes():
    # distance 2, codes equal: |2 - 0| * e^-2
    x_i = np.array([0.0, 0.0])
    x_j = np.array([2.0, 0.0])
    c = code(1, 1, 1, 1)
    val = pair_loss_discrete(x_i, x_j, c, c, CFG11)
    assert val == pytest.approx(2.0 * np.exp(-2.0), abs=1e-12)
    assert val == pytest.approx(0.27067, abs=5e-6)


def test_discrete_hand_example_one_bit():
    # one flipped bit has L1 distance 2, cancelling lambda*d exactly
    x_i = np.array([0.0, 0.0])
    x_j = np.array([2.0, 0.0])
    assert pair_loss_discrete(x_i, x_j, code(1, 1, 1), code(1, 1, -1), CFG11) == 0.0


def test_discrete_shape_mismatch():
    with pytest.raises(ShapeError):
        pair_loss_discrete(np.zeros(2), np.zeros(3), code(1), code(1), CFG11)


def test_code_l1_is_twice_hamming():
    a = code(1, -1, 1, 1)
    b = code(-1, -1, 1, -1)
    l1 = np.abs(a.astype(int) - b).sum()
    assert l1 == 4  # 2 differing bits


# --- relaxed form ---

def test_relaxed_zero_for_identical():
    x = np.array([0.5, 0.5])
    h = np.array([0.2, -0.3])
    assert pair_loss_relaxed(x, x, h, h, CFG11) == 0.0


def test_relaxed_hand_example():
    # lambda=0.5, t=2, d2=4, L1(h)=1: |2 - 1| * e^-2
    cfg = LossConfig(distance_scale=0.5, temperature=2.0)
    x_i = np.array([0.0])
    x_j = np.array([4.0])
    h_i = np.array([0.5, 0.0])
    h_j = np.array([-0.5, 0.0])
    val = pair_loss_relaxed(x_i, x_j, h_i, h_j, cfg)
    assert val == pytest.approx(np.exp(-2.0), abs=1e-12)
    assert val == pytest.approx(0.13534, abs=5e-6)


def test_relaxed_coincides_with_discrete_at_vertices():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x_i = rng.normal(size=3)
        x_j = rng.normal(size=3)
        bits_i = rng.choice([-1, 1], size=5)
        bits_j = rng.choice([-1, 1], size=5)
        cfg = LossConfig(distance_scale=rng.uniform(0.1, 5), temperature=rng.uniform(0.1, 5))
        d = pair_loss_discrete(x_i, x_j, bits_i, bits_j, cfg)
        r = pair_loss_relaxed(x_i, x_j, bits_i.astype(float), bits_j.astype(float), cfg)
        assert r == pytest.approx(d, rel=1e-12)


def test_nonnegativity_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        val = pair_loss_relaxed(
            rng.normal(size=4), rng.normal(size=4),
            rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4),
            LossConfig(rng.uniform(0.1, 5), rng.uniform(0.1, 5)),
        )
        assert val >= 0.0


def test_large_temperature_removes_weighting():
    x_i = np.array([0.0, 0.0])
    x_j = np.array([3.0, 0.0])
    h_i = np.array([0.9, -0.9])
    h_j = np.array([-0.1, 0.4])
    cfg = LossConfig(distance_scale=2.0, temperature=1e9)
    expected = abs(2.0 * 3.0 - np.abs(h_i - h_j).sum())
    assert pair_loss_relaxed(x_i, x_j, h_i, h_j, cfg) == pytest.approx(expected, rel=1e-8)


def test_lambda_slope_piecewise_linear():
    # With codes fixed, d(loss)/d(lambda) = +-d2 * e^(-d2/t).
    x_i = np.zeros(2)
    x_j = np.array([1.5, 0.0])
    c_i = code(1, 1, -1, 1)
    c_j = code(-1, 1, 1, 1)  # L1 = 4
    t = 2.0
    for lam, sign in ((3.0, 1.0), (2.0, -1.0)):  # lam*1.5 vs 4
        eps = 1e-6
        hi = pair_loss_discrete(x_i, x_j, c_i, c_j, LossConfig(lam + eps, t))
        lo = pair_loss_discrete(x_i, x_j, c_i, c_j, LossConfig(lam - eps, t))
        slope = (hi - lo) / (2 * eps)
        assert slope == pytest.approx(sign * 1.5 * np.exp(-1.5 / t), rel=1e-6)


def test_config_validation():
    with pytest.raises(InvalidSpecError, match="distance_scale"):
        LossConfig(distance_scale=0.0, temperature=1.0)
    with pytest.raises(InvalidSpecError, match="temperature"):
        LossConfig(distance_scale=1.0, temperature=-2.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("key", ["distance_scale", "temperature"])
def test_config_rejects_a_value_that_is_not_finite(key, value):
    with pytest.raises(InvalidSpecError, match=f"^{key} must be a positive finite number, got (nan|inf)$"):
        LossConfig(**{key: value})


# --- gradients ---

def test_grad_zero_at_kink():
    # lambda*d2 == L1 exactly: chosen subgradient is zero for both sides.
    x_i = np.array([0.0])
    x_j = np.array([1.0])
    h_i = np.array([0.5])
    h_j = np.array([-0.5])  # L1 = 1 = 1*d2
    g_i, g_j = pair_loss_grad(x_i, x_j, h_i, h_j, CFG11)
    assert np.array_equal(g_i, np.zeros(1))
    assert np.array_equal(g_j, np.zeros(1))


def test_grad_antisymmetry():
    rng = np.random.default_rng(2)
    for _ in range(20):
        h_i = rng.uniform(-1, 1, 6)
        h_j = rng.uniform(-1, 1, 6)
        if np.any(h_i - h_j == 0.0):
            continue
        g_i, g_j = pair_loss_grad(rng.normal(size=3), rng.normal(size=3), h_i, h_j, CFG11)
        assert np.array_equal(g_i, -g_j)


@pytest.mark.parametrize("seed", range(8))
def test_grad_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    cfg = LossConfig(rng.uniform(0.2, 3), rng.uniform(0.5, 3))
    x_i = rng.normal(size=4)
    x_j = rng.normal(size=4)
    while True:
        h_i = rng.uniform(-0.9, 0.9, 5)
        h_j = rng.uniform(-0.9, 0.9, 5)
        d2 = np.linalg.norm(x_i - x_j)
        margin = min(
            abs(cfg.distance_scale * d2 - np.abs(h_i - h_j).sum()),
            np.abs(h_i - h_j).min(),
        )
        if margin > 1e-3:
            break
    g_i, g_j = pair_loss_grad(x_i, x_j, h_i, h_j, cfg)
    num_i = finite_difference(lambda h: pair_loss_relaxed(x_i, x_j, h, h_j, cfg), h_i)
    num_j = finite_difference(lambda h: pair_loss_relaxed(x_i, x_j, h_i, h, cfg), h_j)
    for a, n in ((g_i, num_i), (g_j, num_j)):
        denom = np.maximum(np.abs(n), 1e-8)
        assert np.max(np.abs(a - n) / denom) <= 1e-4


# --- batch form ---

def test_batch_of_two_equals_single_pair():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3))
    h = rng.uniform(-1, 1, (2, 4))
    loss, grads = batch_loss(x, h, CFG11)
    assert loss == pytest.approx(pair_loss_relaxed(x[0], x[1], h[0], h[1], CFG11), rel=1e-12)
    g_i, g_j = pair_loss_grad(x[0], x[1], h[0], h[1], CFG11)
    assert np.allclose(grads, np.stack([g_i, g_j]), atol=1e-15)


def test_batch_identical_samples_zero():
    x = np.ones((5, 3))
    h = np.tile(np.array([0.1, -0.2]), (5, 1))
    loss, grads = batch_loss(x, h, CFG11)
    assert loss == 0.0
    assert np.array_equal(grads, np.zeros((5, 2)))


def test_batch_of_three_is_mean_of_pairs():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 2))
    h = rng.uniform(-1, 1, (3, 3))
    loss, _ = batch_loss(x, h, CFG11)
    pairs = [
        pair_loss_relaxed(x[i], x[j], h[i], h[j], CFG11)
        for i in range(3)
        for j in range(i + 1, 3)
    ]
    assert loss == pytest.approx(np.mean(pairs), rel=1e-12)


def test_batch_grad_is_gradient_of_mean():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 3))
    h = rng.uniform(-0.8, 0.8, (4, 3))
    _, grads = batch_loss(x, h, CFG11)
    flat = finite_difference(
        lambda v: batch_loss(x, v.reshape(h.shape), CFG11)[0], h.ravel()
    ).reshape(h.shape)
    assert np.max(np.abs(grads - flat)) <= 1e-6


def test_batch_requires_two_samples():
    with pytest.raises(ShapeError, match="^need at least 2 samples to form a pair$"):
        batch_loss(np.zeros((1, 2)), np.zeros((1, 3)), CFG11)
