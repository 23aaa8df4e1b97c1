"""Distance-driven self-supervised pairwise loss.

For a pair (x_i, x_j) with codes (or relaxed outputs) the loss is

    | scale * ||x_i - x_j||_2  -  ||c_i - c_j||_1 | * exp(-||x_i - x_j||_2 / temperature)

i.e. the code distance is pulled toward the (scaled) input distance, with
distant pairs down-weighted exponentially. On +-1 codes the L1 distance is
twice the hamming distance; training uses the tanh outputs in their place
so the loss is differentiable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientBatchError, InvalidSpecError, ShapeError


@dataclass(frozen=True)
class LossConfig:
    """Hyper-parameters: ``distance_scale`` multiplies the input-space distance,
    ``temperature`` divides it inside the exponential down-weighting."""

    distance_scale: float = 1.0
    temperature: float = 1.0

    def __post_init__(self):
        for key in ("distance_scale", "temperature"):
            if not getattr(self, key) > 0:
                raise InvalidSpecError(f"{key} must be positive, got {getattr(self, key)!r}")


def batch_loss(batch_x, batch_h, cfg: LossConfig):
    """Mean relaxed loss and per-output gradients over all unordered pairs.

    Every one of the C(B,2) pairs contributes; the loss is their mean and the
    returned (B, L) gradient array is the gradient of that mean. sign(0) is
    taken as 0 both for the gap and for zero components of h_i - h_j, so
    the subgradient is deterministic and bounded.
    """
    batch_x = np.atleast_2d(np.asarray(batch_x, dtype=np.float64))
    batch_h = np.atleast_2d(np.asarray(batch_h, dtype=np.float64))
    n = batch_x.shape[0]
    if batch_h.shape[0] != n:
        raise ShapeError("batch_x and batch_h disagree on batch size")
    if n < 2:
        raise InsufficientBatchError("need at least 2 samples to form a pair")

    ii, jj = np.triu_indices(n, k=1)
    d_in = np.linalg.norm(batch_x[ii] - batch_x[jj], axis=1)
    diff = batch_h[ii] - batch_h[jj]
    gap = cfg.distance_scale * d_in - np.abs(diff).sum(axis=1)
    w = np.exp(-d_in / cfg.temperature)
    n_pairs = ii.size
    loss = float(np.mean(np.abs(gap) * w))

    # dL_pair/dh_i = -w * sign(gap) * sign(h_i - h_j); scaled by 1/n_pairs for the mean
    per_pair = (-(w * np.sign(gap))[:, None] * np.sign(diff)) / n_pairs
    grads = np.zeros_like(batch_h)
    np.add.at(grads, ii, per_pair)
    np.add.at(grads, jj, -per_pair)
    return loss, grads
