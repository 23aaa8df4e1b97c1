import numpy as np
import pytest

from hashclust.errors import ShapeError
from hashclust.metrics import CostLedger, nmi, purity, total_cost_bits


# --- purity ---

def test_purity_perfect_any_labeling():
    truth = np.array([0, 0, 1, 1, 2, 2])
    pred = np.array([5, 5, 9, 9, 1, 1])  # same partition, different ids
    assert purity(pred, truth) == 1.0


def test_purity_single_cluster_half_half():
    pred = np.zeros(10, dtype=int)
    truth = np.array([0] * 5 + [1] * 5)
    assert purity(pred, truth) == 0.5


def test_purity_hand_example():
    # predicted clusters {a,a,b} and {b,b,b}: (2+3)/6
    pred = np.array([0, 0, 0, 1, 1, 1])
    truth = np.array([0, 0, 1, 1, 1, 1])
    assert purity(pred, truth) == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_purity_permutation_invariant():
    rng = np.random.default_rng(0)
    pred = rng.integers(0, 4, 60)
    truth = rng.integers(0, 3, 60)
    base = purity(pred, truth)
    for _ in range(50):
        p_map = rng.permutation(4)
        t_map = rng.permutation(3)
        assert purity(p_map[pred], t_map[truth]) == pytest.approx(base, abs=1e-12)


def test_purity_length_mismatch():
    with pytest.raises(ShapeError):
        purity(np.zeros(3, dtype=int), np.zeros(4, dtype=int))


def test_purity_empty():
    with pytest.raises(ShapeError):
        purity(np.array([], dtype=int), np.array([], dtype=int))


# --- nmi ---

def test_nmi_perfect_balanced():
    truth = np.array([0, 0, 1, 1])
    pred = np.array([1, 1, 0, 0])
    assert nmi(pred, truth) == pytest.approx(1.0, abs=1e-12)


def test_nmi_independent_split_is_zero():
    # pred splits each truth class exactly in half
    truth = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    pred = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    assert nmi(pred, truth) == pytest.approx(0.0, abs=1e-12)


def test_nmi_degenerate_single_cluster():
    truth = np.array([0, 1, 0, 1])
    pred = np.zeros(4, dtype=int)
    assert nmi(pred, truth) == 0.0


def test_nmi_of_two_single_clusters_is_one():
    # equal partitions, as scikit-learn has it; a single cluster against two stays 0
    assert nmi(np.zeros(5), np.zeros(5)) == 1.0
    assert nmi(np.full(5, 3), np.zeros(5)) == 1.0
    assert nmi(np.zeros(5), np.array([0, 0, 1, 1, 1])) == 0.0
    assert nmi(np.array([0, 0, 1, 1, 1]), np.zeros(5)) == 0.0


def test_nmi_symmetric_and_bounded():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.integers(0, 4, 40)
        b = rng.integers(0, 5, 40)
        x = nmi(a, b)
        assert x == pytest.approx(nmi(b, a), abs=1e-12)
        assert -1e-12 <= x <= 1.0 + 1e-12


def test_nmi_permutation_invariant():
    rng = np.random.default_rng(2)
    pred = rng.integers(0, 3, 50)
    truth = rng.integers(0, 3, 50)
    base = nmi(pred, truth)
    for _ in range(50):
        assert nmi(rng.permutation(3)[pred], truth) == pytest.approx(base, abs=1e-12)


def test_nmi_is_exactly_one_for_a_relabeled_copy_and_in_the_unit_interval_otherwise():
    rng = np.random.default_rng(3)
    for _ in range(500):
        n = int(rng.integers(2, 300))
        truth = rng.integers(0, int(rng.integers(2, 12)), n)
        if len(np.unique(truth)) > 1:
            pred = rng.permutation(100)[truth]
            assert nmi(pred, truth) == 1.0
            assert nmi(truth, pred) == 1.0
        other = rng.integers(0, int(rng.integers(1, 12)), n)
        assert 0.0 <= nmi(other, truth) <= 1.0


def test_nmi_natural_log_value():
    # hand-computed small case in nats
    pred = np.array([0, 0, 0, 1])
    truth = np.array([0, 0, 1, 1])
    n = 4
    # contingency: [[2,1],[0,1]]
    mi = (2 / n) * np.log((2 / n) / ((3 / n) * (2 / n))) + (1 / n) * np.log(
        (1 / n) / ((3 / n) * (2 / n))
    ) + (1 / n) * np.log((1 / n) / ((1 / n) * (2 / n)))
    hp = -(3 / n) * np.log(3 / n) - (1 / n) * np.log(1 / n)
    ht = -0.5 * np.log(0.5) * 2
    assert nmi(pred, truth) == pytest.approx(mi / np.sqrt(hp * ht), rel=1e-12)


# --- cost formulas ---

def training_bits(n_sites, n_params, n_rounds):
    return total_cost_bits(n_sites, n_params, n_rounds, [], 8).training_bits


def test_training_cost_hand_example():
    assert training_bits(10, 1000, 5) == 3_200_000


def test_training_cost_zero_rounds():
    assert training_bits(4, 123, 0) == 0


def test_training_cost_linear_in_rounds():
    assert training_bits(3, 77, 12) == 2 * training_bits(3, 77, 6)


def test_total_cost_hand_example():
    ledger = total_cost_bits(1, 100, 1, [4], 8)
    # 32*3*1*100 + 40*4
    assert ledger.training_bits == 6400
    assert ledger.final_broadcast_bits == 3200
    assert ledger.code_bits == 160
    assert ledger.total_bits == 9760
    assert ledger.upper_bound_bits == 9600 + 40 * 256
    assert ledger.upper_bound_bits == 19_840
    assert ledger.total_bits <= ledger.upper_bound_bits


def test_total_cost_zero_codes():
    ledger = total_cost_bits(2, 50, 3, [0, 0], 4)
    assert ledger.code_bits == 0
    assert ledger.total_bits == ledger.training_bits + ledger.final_broadcast_bits


def test_ledger_dict_shape():
    ledger = total_cost_bits(2, 10, 1, [1, 2], 4)
    d = ledger.as_dict()
    for key in ("training_bits", "final_broadcast_bits", "code_bits", "total_bits", "upper_bound_bits"):
        assert key in d
    assert "measured_paper_bits" not in d  # only set in wire mode
    measured = CostLedger(
        training_bits=1, final_broadcast_bits=2, code_bits=3, total_bits=6,
        upper_bound_bits=10, measured_paper_bits=6, measured_physical_bits=9,
    )
    md = measured.as_dict()
    assert md["measured_paper_bits"] == 6
    assert md["measured_physical_bits"] == 9
