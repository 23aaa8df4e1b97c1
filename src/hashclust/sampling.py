"""Representative-batch selection.

Samples are bucketed by their current hash code. A batch is drawn greedily:
the first sample uniformly at random, each later one uniformly from the
bucket whose code maximizes the summed hamming distance to all codes picked
so far (counted once per prior pick). Opposite corners of the code cube get
picked early, which keeps training pairs diverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyShardError
from .network import NetworkParams, forward, group_codes


@dataclass
class BucketIndex:
    """Partition of local sample indices by current hash code.

    Buckets are kept sorted by packed code bytes so that tie-breaks and
    uniform draws are reproducible.
    """

    code_bits: np.ndarray
    members: tuple

    def sizes(self) -> np.ndarray:
        return np.array([len(m) for m in self.members])


def build_buckets(params: NetworkParams, x) -> BucketIndex:
    """Bucket every sample of the local dataset by its current code."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] == 0:
        raise EmptyShardError("cannot bucket an empty shard")
    h, _ = forward(params, x)
    _keys, code_bits, index = group_codes(h)
    members = np.split(np.argsort(index, kind="stable"), np.cumsum(np.bincount(index))[:-1])
    return BucketIndex(code_bits=code_bits.astype(np.int64), members=tuple(members))


def select_batch(buckets: BucketIndex, batch_size: int, seed) -> np.ndarray:
    """Greedy diverse batch; deterministic for a fixed seed.

    Returns at most ``batch_size`` sample indices (all of them, in pick
    order, if the shard is smaller). Ties between buckets at equal summed
    distance go to the smallest packed code.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    counts = buckets.sizes()
    n_samples = int(counts.sum())
    if n_samples == 0:
        raise EmptyShardError("no samples to select from")
    rng = np.random.default_rng(seed)
    n_buckets = len(buckets.members)
    remaining = [list(m) for m in buckets.members]
    # summed hamming distance from each bucket's code to every picked code
    sums = np.zeros(n_buckets, dtype=np.int64)
    length = buckets.code_bits.shape[1]

    def draw(bucket: int, offset: int | None = None) -> int:
        pool = remaining[bucket]
        j = int(rng.integers(len(pool))) if offset is None else offset
        idx = pool[j]
        pool[j] = pool[-1]
        pool.pop()
        counts[bucket] -= 1
        sums[:] += (length - buckets.code_bits @ buckets.code_bits[bucket]) // 2
        return idx

    picked = []
    target = min(batch_size, n_samples)

    # first pick: uniform over all samples via the flattened bucket order
    pos = int(rng.integers(n_samples))
    cum = np.cumsum(counts)
    b0 = int(np.searchsorted(cum, pos, side="right"))
    picked.append(draw(b0, pos - (cum[b0 - 1] if b0 else 0)))

    while len(picked) < target:
        alive = counts > 0
        best = int(np.argmax(np.where(alive, sums, -1)))
        picked.append(draw(best))
    return np.array(picked)
