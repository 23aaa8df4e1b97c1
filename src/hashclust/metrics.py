"""Clustering quality measures and the transmission-cost ledger.

Purity is the fraction of samples whose predicted cluster's majority truth
class matches their own. NMI is mutual information normalized by the
geometric mean of the two entropies, which lands in [0, 1]. The paper prints
the plain product of the entropies as the normalizer, which is not bounded
by 1.

The cost ledger is pure integer arithmetic over the protocol shape:
parameters and degrees count 32 bits each, codes L bits each.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ShapeError


def _contingency(pred, truth):
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.size != truth.size:
        raise ShapeError(f"label vectors disagree: {pred.size} vs {truth.size}")
    if pred.size == 0:
        raise ShapeError("label vectors are empty")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def purity(pred, truth) -> float:
    """Sum over predicted clusters of their largest truth-class overlap, / total."""
    table = _contingency(pred, truth)
    return float(table.max(axis=1).sum() / table.sum())


def nmi(pred, truth) -> float:
    """Normalized mutual information between two labelings.

    Natural logs throughout. Two labelings that are one relabeling of each
    other (one nonzero cell in every row and column of their table; two
    single clusters too) give exactly 1. Otherwise a single cluster on
    either side has zero entropy and gives 0, and every other pair a value
    clipped to [0, 1], where rounding could otherwise carry it just past.
    """
    table = _contingency(pred, truth)
    total = table.sum()
    p_ij = table / total
    p_i = p_ij.sum(axis=1)
    p_j = p_ij.sum(axis=0)
    nz = p_ij > 0
    mi = float((p_ij[nz] * np.log(p_ij[nz] / np.outer(p_i, p_j)[nz])).sum())
    h_i = float(-(p_i[p_i > 0] * np.log(p_i[p_i > 0])).sum())
    h_j = float(-(p_j[p_j > 0] * np.log(p_j[p_j > 0])).sum())
    if (nz.sum(axis=0) == 1).all() and (nz.sum(axis=1) == 1).all():
        return 1.0
    if h_i == 0.0 or h_j == 0.0:
        return 0.0
    return min(max(mi / float(np.sqrt(h_i * h_j)), 0.0), 1.0)


@dataclass
class CostLedger:
    """Per-phase bit counts for all site/coordinator traffic.

    ``total_bits`` follows the closed form
    32*(2N+1)*M*|params| + sum_m (32+L)*num_m; ``upper_bound_bits`` replaces
    every num_m with 2^L. Wire runs additionally fill the measured fields:
    ``measured_paper_bits`` re-counts the same formula quantities from the
    actual messages, ``measured_physical_bits`` counts raw payload bytes
    (headers and code padding included).
    """

    training_bits: int
    final_broadcast_bits: int
    code_bits: int
    total_bits: int
    upper_bound_bits: int
    measured_paper_bits: int | None = None
    measured_physical_bits: int | None = None

    def as_dict(self) -> dict:
        """Every field in order; the measured ones only once a wire run set them."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def total_cost_bits(n_sites: int, n_params: int, n_rounds: int, codes_per_site, code_length: int) -> CostLedger:
    """Full ledger for one run; ``codes_per_site`` lists num_m per site."""
    codes_per_site = list(codes_per_site)
    # gradients up and parameters down, every round
    training = n_sites * n_params * 2 * n_rounds * 32
    final_broadcast = n_sites * n_params * 32
    code = sum(n * (32 + code_length) for n in codes_per_site)
    upper = (
        training
        + final_broadcast
        + n_sites * (32 + code_length) * 2 ** code_length
    )
    return CostLedger(
        training_bits=training,
        final_broadcast_bits=final_broadcast,
        code_bits=code,
        total_bits=training + final_broadcast + code,
        upper_bound_bits=upper,
    )
