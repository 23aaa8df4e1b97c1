"""Global/sub-site training loop.

Each round the coordinator broadcasts the current parameters, every site
computes a gradient on a greedily-selected local batch, and the coordinator
applies the averaged gradient. Rounds are a strict barrier. Their bit
cost is the closed form in metrics.total_cost_bits; a wire run recounts it
from the frames it actually sent.

Gradients and merged parameters are rounded to the float32 grid at the
transfer boundaries, matching the wire format, so simulated and networked
runs produce bit-identical trajectories.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateHistoryWarning, InvalidSpecError, ShapeError, check_positive_finite
from .loss import LossConfig, batch_loss
from .network import NetworkParams, backward, forward, init_network, param_count
from .sampling import build_buckets, select_batch


@dataclass(frozen=True)
class TrainingConfig:
    n_rounds: int
    n_sites: int
    batch_size: int
    learning_rate: float
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0

    def __post_init__(self):
        if self.n_rounds < 0:
            raise InvalidSpecError("n_rounds must be >= 0")
        if self.n_sites < 1:
            raise InvalidSpecError(f"n_sites must be >= 1, got {self.n_sites}")
        check_positive_finite(self.learning_rate, "learning_rate")
        if self.batch_size < 2:
            raise InvalidSpecError(f"batch_size must be >= 2: a batch needs a pair, got {self.batch_size}")


def derive_round_seed(base_seed: int, round_index: int) -> int:
    """Batch-selection seed for one round, shared by every site.

    Sharing the seed across sites keeps the M-identical-shards case exactly
    equivalent to single-site training; sites with different shards still
    select different batches.
    """
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(round_index,))
    return int(ss.generate_state(1, np.uint64)[0])


def local_round(shard, params: NetworkParams, cfg: TrainingConfig, round_index: int = 0):
    """One site's work for one round: select a batch, return (gradient, mean loss)."""
    x = np.atleast_2d(np.asarray(getattr(shard, "normalized", shard), dtype=np.float64))
    if x.shape[0] < 2:
        raise ShapeError("a shard needs at least 2 samples to form a pair")
    buckets = build_buckets(params, x)
    idx = select_batch(buckets, cfg.batch_size, derive_round_seed(cfg.seed, round_index))
    bx = x[idx]
    h, trace = forward(params, bx)
    loss, grad_h = batch_loss(bx, h, cfg.loss)
    return backward(trace, grad_h), loss


def global_merge(params: NetworkParams, grads, learning_rate: float) -> NetworkParams:
    """Apply the average of the site gradients: new = old - lr * mean(grads).

    A float32 gradient (on the wire, a big-endian view of its frame) is added
    as it is, any other is rounded to float32 first, into a float64 sum from
    +0.0 in site order. The sum is divided by the site count, scaled by lr,
    subtracted from the parameters and rounded to the float32 grid that gets
    broadcast: one IEEE operation per entry each, as ``values - lr * (sum / M)``.
    """
    grads = [np.asarray(g) for g in grads]
    if not grads:
        raise ShapeError("no gradients to merge")
    n = param_count(params)
    total = np.zeros(n)
    for i, g in enumerate(grads):
        if g.shape != (n,):
            raise ShapeError(f"gradient {i} has shape {g.shape}, expected ({n},)")
        # float32 widens to float64 exactly, so this adds the float32-grid value
        total += g if g.dtype.char == "f" else g.astype(np.float32)
    total /= len(grads)
    total *= learning_rate
    np.subtract(params.values, total, out=total)
    total[...] = total.astype(np.float32)
    return NetworkParams(params.layers, total)


def run_rounds(params: NetworkParams, cfg: TrainingConfig, exchange):
    """The round loop of simulation and wire mode alike; returns (params, losses).

    ``exchange(params, r)`` hands round r's parameters to every site and
    returns their (gradients, losses) in site order. ``losses`` is a float64
    (n_rounds, n_sites) table: row r holds round r's batch losses in site
    order. One loop for both modes keeps their parameter trajectories and
    loss tables bitwise the same.
    """
    losses = np.empty((cfg.n_rounds, cfg.n_sites))
    for r in range(cfg.n_rounds):
        grads, losses[r] = exchange(params, r)
        params = global_merge(params, grads, cfg.learning_rate)
    return params, losses


def train(shards, spec, cfg: TrainingConfig):
    """Run the full protocol in process for cfg.n_rounds; returns (params, losses),
    the losses a float64 (n_rounds, n_sites) table as run_rounds gives it.

    ``shards`` must have exactly cfg.n_sites entries; each round runs one
    local_round per shard through run_rounds. Deterministic for fixed
    seeds; with n_rounds == 0 the initial parameters come back untouched.
    """
    shards = list(shards)
    if len(shards) != cfg.n_sites:
        raise InvalidSpecError(
            f"config says {cfg.n_sites} sites but {len(shards)} shards supplied"
        )

    def exchange(params, r):
        return zip(*(local_round(shard, params, cfg, round_index=r) for shard in shards))

    return run_rounds(init_network(spec, cfg.seed), cfg, exchange)


def relative_error_ratio(losses) -> np.ndarray:
    """Min-max normalized loss per round: (loss - min) / (max - min), where a
    round's loss is the mean of its row of the (n_rounds, n_sites) table.

    A table of no rounds or no sites raises ShapeError. Equal losses in every
    round are degenerate; they yield all zeros and a DegenerateHistoryWarning.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 2 or 0 in losses.shape:
        raise ShapeError(f"need a (rounds, sites) loss table of at least one of each, got shape {losses.shape}")
    losses = losses.mean(axis=1)
    lo, hi = losses.min(), losses.max()
    if hi == lo:
        warnings.warn(
            "all rounds have identical loss; RER is identically zero",
            DegenerateHistoryWarning,
        )
        return np.zeros_like(losses)
    return (losses - lo) / (hi - lo)
