"""Representative-batch selection.

Samples are bucketed by their current hash code. A batch is drawn greedily:
the first sample uniformly at random, each later one uniformly from the
bucket whose code maximizes the summed hamming distance to all codes picked
so far (counted once per prior pick). Opposite corners of the code cube get
picked early, which keeps training pairs diverse. Bucket codes are held as
``network.code_words`` rows, the one in-memory form of a code that codebooks
and the code graph hold too, so a distance is the popcount of a XOR.
``network.output_words`` gives the samples' rows and ``network.group_words``
groups them, as it groups every set of code rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, ShapeError
from .network import NetworkParams, forward, group_words, output_words

# the summed distance of a bucket with no member left: far below every real
# sum, which is >= 0, however many rows are added to it
_DRAWN_EMPTY = np.iinfo(np.int64).min // 2


@dataclass
class BucketIndex:
    """Partition of local sample indices by current hash code.

    ``codes`` holds bucket i's code as row i of ``network.code_words``, the
    form a Codebook holds its codes in. Buckets are kept sorted by those
    rows, which order as the packed code bytes do, so that tie-breaks and
    uniform draws are reproducible.
    """

    codes: np.ndarray
    members: tuple

    def sizes(self) -> np.ndarray:
        return np.array([len(m) for m in self.members])


def build_buckets(params: NetworkParams, x) -> BucketIndex:
    """Bucket every sample of the local dataset by its current code."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] == 0:
        raise ShapeError("cannot bucket an empty shard")
    h, _ = forward(params, x)
    words = output_words(h)
    # the grouping orders the samples by code, and by index within a code
    order, starts = group_words(words)
    return BucketIndex(codes=words[order[starts]], members=tuple(np.split(order, starts[1:])))


def select_batch(buckets: BucketIndex, batch_size: int, seed) -> np.ndarray:
    """Greedy diverse batch; deterministic for a fixed seed.

    Returns at most ``batch_size`` sample indices (all of them, in pick
    order, if the shard is smaller). A bucket's distance to a pick is the
    popcount of the XOR of their ``codes`` rows. Ties between buckets at
    equal summed distance go to the smallest packed code.
    """
    if batch_size < 1:
        raise InvalidSpecError("batch_size must be >= 1")
    counts = buckets.sizes().tolist()
    n_samples = sum(counts)
    if n_samples == 0:
        raise ShapeError("no samples to select from")
    rng = np.random.default_rng(seed)
    # the members of a bucket not drawn yet are the first counts[b] of its pool
    pools = {}
    # each bucket's distance row: the hamming distance from every bucket's
    # code to its own, counted when the bucket is first drawn from
    rows = {}
    # summed hamming distance from each bucket's code to every picked code;
    # a bucket with no member left is held at _DRAWN_EMPTY, never the argmax
    sums = np.array([0 if c else _DRAWN_EMPTY for c in counts], dtype=np.int64)

    def draw(bucket: int, offset: int | None = None) -> int:
        if bucket not in pools:
            pools[bucket] = np.asarray(buckets.members[bucket]).tolist()
            rows[bucket] = np.bitwise_count(buckets.codes ^ buckets.codes[bucket]).sum(axis=1, dtype=np.int64)
        pool = pools[bucket]
        size = counts[bucket]
        j = int(rng.integers(size)) if offset is None else offset
        idx = pool[j]
        pool[j] = pool[size - 1]
        counts[bucket] = size - 1
        np.add(sums, rows[bucket], out=sums)
        if size == 1:
            sums[bucket] = _DRAWN_EMPTY
        return idx

    picked = []
    target = min(batch_size, n_samples)

    # first pick: uniform over all samples via the flattened bucket order
    pos = int(rng.integers(n_samples))
    cum = np.cumsum(counts)
    b0 = int(np.searchsorted(cum, pos, side="right"))
    picked.append(draw(b0, int(pos - (cum[b0 - 1] if b0 else 0))))

    while len(picked) < target:
        picked.append(draw(int(sums.argmax())))
    return np.array(picked, dtype=np.int64)
