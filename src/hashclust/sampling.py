"""Representative-batch selection.

Samples are bucketed by their current hash code. A batch is drawn greedily:
the first sample uniformly at random, each later one uniformly from the
bucket whose code maximizes the summed hamming distance to all codes picked
so far (counted once per prior pick). Opposite corners of the code cube get
picked early, which keeps training pairs diverse. Every draw comes from one
pool, the buckets' members end to end, in which a pick's place is filled by
the last undrawn member of its bucket. Bucket codes are held as
``network.code_words`` rows, the one in-memory form of a code that codebooks
and the code graph hold too, so a distance is the popcount of a XOR.
``network.output_words`` gives the samples' rows and ``network.group_words``
groups them, as it groups every set of code rows.

A sample's bucket is the sign pattern of a float32 evaluation of the network,
``forward(params, x, dtype=np.float32)``, at about half the cost of the
float64 one. The weights cast to float32 exactly, being on its grid; the
inputs round to it. The batch drawn is then trained on in float64 by
``training.local_round``, and codebooks are encoded in float64, so only the
choice of batch can differ, for a sample whose output lies within float32
rounding of 0.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ShapeError, check_integer
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
    """Bucket every sample of the local dataset by the code of its float32
    outputs."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] == 0:
        raise ShapeError("cannot bucket an empty shard")
    h, _ = forward(params, x, dtype=np.float32)
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
    check_integer(batch_size, "batch_size", 1)
    check_integer(seed, "seed", 0)
    counts = buckets.sizes().tolist()
    n_samples = sum(counts)
    if n_samples == 0:
        raise ShapeError("no samples to select from")
    rng = np.random.default_rng(seed)
    # one pool, every bucket's members end to end: bucket b's slice begins at
    # starts[b], and its members not drawn yet are the first counts[b] of it
    pool = np.concatenate([np.asarray(m, dtype=np.int64) for m in buckets.members])
    starts = list(accumulate(counts[:-1], initial=0))
    # each bucket's distance row: the hamming distance from every bucket's
    # code to its own, counted when the bucket is first drawn from
    rows = {}
    # summed hamming distance from each bucket's code to every picked code;
    # a bucket with no member left is held at _DRAWN_EMPTY, never the argmax
    sums = np.array([0 if c else _DRAWN_EMPTY for c in counts], dtype=np.int64)

    picked = []
    target = min(batch_size, n_samples)
    # the first pick is uniform over the whole pool, which is still full
    j = int(rng.integers(n_samples))
    bucket = bisect_right(starts, j) - 1
    while True:
        # take the pick out: the bucket's last undrawn member fills its place
        counts[bucket] -= 1
        picked.append(pool[j])
        pool[j] = pool[starts[bucket] + counts[bucket]]
        if bucket not in rows:
            rows[bucket] = np.bitwise_count(buckets.codes ^ buckets.codes[bucket]).sum(axis=1, dtype=np.int64)
        np.add(sums, rows[bucket], out=sums)
        if counts[bucket] == 0:
            sums[bucket] = _DRAWN_EMPTY
        if len(picked) == target:
            return np.array(picked, dtype=np.int64)
        bucket = int(sums.argmax())
        j = starts[bucket] + int(rng.integers(counts[bucket]))
