"""Distance-driven self-supervised pairwise loss.

For a pair (x_i, x_j) with codes (or relaxed outputs) the loss is

    | scale * ||x_i - x_j||_2  -  ||c_i - c_j||_1 | * exp(-||x_i - x_j||_2 / temperature)

i.e. the code distance is pulled toward the (scaled) input distance, with
distant pairs down-weighted exponentially. On +-1 codes the L1 distance is
twice the hamming distance; training uses the tanh outputs in their place
so the loss is differentiable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, check_positive_finite


@dataclass(frozen=True)
class LossConfig:
    """Hyper-parameters: ``distance_scale`` multiplies the input-space distance,
    ``temperature`` divides it inside the exponential down-weighting."""

    distance_scale: float = 1.0
    temperature: float = 1.0

    def __post_init__(self):
        for key in ("distance_scale", "temperature"):
            check_positive_finite(getattr(self, key), key)


def batch_loss(batch_x, batch_h, cfg: LossConfig):
    """Mean relaxed loss and per-output gradients over all unordered pairs.

    Every one of the C(B,2) pairs contributes; the loss is their mean and the
    returned (B, L) gradient array is the gradient of that mean. sign(0) is
    taken as 0 both for the gap and for zero components of h_i - h_j, so
    the subgradient is deterministic and bounded.
    """
    batch_x = np.atleast_2d(np.asarray(batch_x, dtype=np.float64))
    batch_h = np.atleast_2d(np.asarray(batch_h, dtype=np.float64))
    for name, batch in (("batch_x", batch_x), ("batch_h", batch_h)):
        if batch.ndim != 2:
            raise ShapeError(f"{name} must be a 2-D array, got shape {batch.shape}")
    n = batch_x.shape[0]
    if batch_h.shape[0] != n:
        raise ShapeError("batch_x and batch_h disagree on batch size")
    if n < 2:
        raise ShapeError("need at least 2 samples to form a pair")

    ii, jj, order = _pair_tables(n)
    dx = batch_x[ii] - batch_x[jj]
    # np.linalg.norm(dx, axis=1): its sum of squares, without its copy of dx
    d_in = np.sqrt(np.add.reduce(np.square(dx, out=dx), axis=1))
    diff = batch_h[ii] - batch_h[jj]
    gap = cfg.distance_scale * d_in - np.abs(diff).sum(axis=1)
    w = np.exp(-d_in / cfg.temperature)
    n_pairs = ii.size
    loss = float(np.mean(np.abs(gap) * w))

    # dL_pair/dh_i = -w * sign(gap) * sign(h_i - h_j); scaled by 1/n_pairs for the mean
    per_pair = (-(w * np.sign(gap))[:, None] * np.sign(diff)) / n_pairs
    # terms[:, r] lists, in order, what np.add.at(grads, ii, per_pair) and
    # then np.add.at(grads, jj, -per_pair) add to grads[r]. Summed in that
    # order from +0.0, the columns give those scatters' sums bit for bit. A
    # sum over the leading (slow) axis adds one slice at a time, in order.
    terms = np.concatenate([per_pair, -per_pair])[order]
    terms[0] += 0.0  # the +0.0 start: a first term of -0.0 becomes +0.0
    return loss, np.add.reduce(terms, axis=0)


@functools.lru_cache(maxsize=64)
def _pair_tables(n: int):
    """The pairs of a batch of n, and each sample's terms in scatter order.

    ``ii``, ``jj`` are np.triu_indices(n, k=1): pair p is (ii[p], jj[p]).
    ``order[:, r]`` indexes the stacked (per_pair, -per_pair) terms: a stable
    sort of their owners, ii then jj, as in ``network.group_words``, lists
    r's pairs as i, by ascending j, then its pairs as j, negated, by
    ascending i, n - 1 terms in all; C-ordered, so they sum slice by slice.
    """
    ii, jj = np.triu_indices(n, k=1)
    order = np.argsort(np.concatenate([ii, jj]), kind="stable").reshape(n, n - 1).T.copy()
    for table in (ii, jj, order):
        table.flags.writeable = False
    return ii, jj, order
