"""Seeded k-means with k-means++ initialization.

Small, dense, and fully deterministic for a fixed seed: restarts draw from a
single generator in a fixed order and assignment ties go to the lowest
cluster index (argmin behavior). Each call makes the points' (d, n) column
copy and their largest norm once, for every restart.

A Lloyd step takes every point-centre distance from one matrix product of
the centres with the columns and gives each point the centre the direct
distances ||p - c||**2 would give it. One tie bound serves every point: the
product's rounding error, bounded at the largest point norm. A point whose
second-best centre scores within it of the best is settled by its direct
distances; a larger bound only sends more points there.

Every step follows one rule. It assigns, and stops if the labels are those
the centres were made from: the centres are then final and the labels
theirs. Otherwise it re-seeds each emptied cluster, lowest index first,
with the point farthest from its centre among clusters of two or more
points, and makes every centre from one ``np.bincount`` of the labels and
one weighted ``np.bincount`` per coordinate, which add each centre's points
in index order. A restart ends with one more assignment when it reaches
``MAX_ITER``, or when an emptied cluster finds no point farther from its
centre than the tie bound: with fewer distinct points than k, a re-seed would
sit on a centre and the clusters would only trade labels. The inertia is
summed from each point's difference to its own centre.

The k-means++ seeding adds each point's squared coordinates from the
columns, one after another: for d < 8 that is bit for bit the row sum
``((points - c) ** 2).sum(axis=1)``, which numpy adds left to right below 8
entries; from 8 up numpy adds pairwise and the two may differ in the last
bit. Each seeding draw is the one ``Generator.choice(n, p=d2 / d2.sum())``
makes, a search of its cumulative sum for one ``random()``, without the
checks of p that points already checked finite make needless. Points that
are not a 2-D array of finite numbers raise ShapeError.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSpecError, ShapeError

N_RESTARTS = 10
MAX_ITER = 300


def _squared_distances(columns: np.ndarray, center: np.ndarray) -> np.ndarray:
    """||p - center||**2 for every point, from the points' (d, n) columns."""
    return np.add.reduce(np.square(columns - center[:, None]), axis=0)


def _choice(p: np.ndarray, rng: np.random.Generator) -> int:
    """``rng.choice(p.size, p=p)`` as ``Generator.choice`` draws it, without its checks of p."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _plusplus_init(columns: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ starts drawn from the points' (d, n) columns; (k, d) centres."""
    d, n = columns.shape
    centers = np.empty((k, d))
    centers[0] = columns[:, int(rng.integers(n))]
    d2 = _squared_distances(columns, centers[0])
    for c in range(1, k):
        total = d2.sum()
        idx = _choice(d2 / total, rng) if total > 0 else int(rng.integers(n))
        centers[c] = columns[:, idx]
        np.minimum(d2, _squared_distances(columns, centers[c]), out=d2)
    return centers


def _tie_bound(d: int, norm_bound: float, sq: np.ndarray) -> float:
    """``_assign``'s bound on the product's rounding, for centres of squared norms ``sq``."""
    return 4 * (d + 3) * np.finfo(np.float64).eps * (norm_bound + np.sqrt(sq.max())) ** 2


def _assign(points: np.ndarray, columns: np.ndarray, norm_bound: float,
            centers: np.ndarray) -> np.ndarray:
    """Each point's nearest centre, as the direct distances ||p - c||**2 pick it.

    The distances come from one matrix product: ||c||**2 - 2 c.p differs from
    ||p - c||**2 by ||p||**2, the same for every centre. Its rounding and that
    of the direct form differ by less than ``_tie_bound``, taken at
    ``norm_bound``, no point's norm being larger, so a point whose best two
    centres are further apart gets the same centre either way; the rare point
    with a second centre within that bound is a near tie and is settled by its
    direct distances (lowest index on exact ties). Scores are held centre by
    centre, so each step is one pass over the points.
    """
    sq = (centers * centers).sum(axis=1)
    score = centers @ columns
    score *= -2.0
    score += sq[:, None]
    best = score[0].copy()
    second = np.full_like(best, np.inf)
    labels = np.zeros(points.shape[0], dtype=np.intp)
    for c in range(1, centers.shape[0]):
        labels[score[c] < best] = c
        np.minimum(second, np.maximum(best, score[c]), out=second)
        np.minimum(best, score[c], out=best)
    near = second <= best + _tie_bound(points.shape[1], norm_bound, sq)
    if near.any():
        d2 = ((points[near, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels[near] = np.argmin(d2, axis=1)
    return labels


def _lloyd(points: np.ndarray, centers: np.ndarray, columns: np.ndarray, norm_bound: float):
    """Lloyd steps from ``centers`` (updated in place); returns (labels, inertia).

    ``columns`` is the points' (d, n) copy and ``norm_bound`` their largest
    norm, both made once per ``kmeans`` call.
    """
    k, d = centers.shape
    labels = None
    for _ in range(MAX_ITER):
        new_labels = _assign(points, columns, norm_bound, centers)
        if np.array_equal(labels, new_labels):
            # these centres were made from these labels: they are final
            return labels, _inertia(points, centers, labels)
        counts = np.bincount(new_labels, minlength=k)
        if not counts.all():
            # re-seed each empty cluster, lowest index first, with the point
            # farthest from its centre in a cluster of two or more points,
            # so that no re-seed empties another cluster
            fit = ((points - centers[new_labels]) ** 2).sum(axis=1)
            bound = _tie_bound(d, norm_bound, (centers * centers).sum(axis=1))
            for c in np.flatnonzero(counts == 0):
                far = int(np.argmax(np.where(counts[new_labels] > 1, fit, -1.0)))
                if fit[far] <= bound:
                    break
                counts[new_labels[far]] -= 1
                counts[c] = 1
                new_labels[far] = c
            if not counts.all():
                break  # no re-seed separates: the closing assignment gives these labels
        # each centre sums its points in index order, then divides by its count
        for j in range(d):
            centers[:, j] = np.bincount(new_labels, weights=columns[j], minlength=k)
        centers /= counts[:, None]
        labels = new_labels
    labels = _assign(points, columns, norm_bound, centers)
    return labels, _inertia(points, centers, labels)


def _inertia(points: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> float:
    """The summed squared distance of each point to its own centre."""
    diff = np.take(centers, labels, axis=0)
    diff -= points
    return float(np.square(diff, out=diff).sum(axis=1).sum())


def kmeans(points, k: int, seed):
    """Cluster rows of ``points`` into k groups; returns (labels, inertia).

    Runs ``N_RESTARTS`` independent k-means++ starts of at most ``MAX_ITER``
    Lloyd iterations and keeps the lowest inertia (first winner on ties).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ShapeError(f"points must be a 2-D array, got shape {points.shape}")
    if not np.isfinite(points).all():
        row = int(np.argmin(np.isfinite(points).all(axis=1)))
        raise ShapeError(f"point {row} is not finite: {points[row].tolist()}")
    n = points.shape[0]
    if k < 1 or k > n:
        raise InvalidSpecError(f"k={k} incompatible with {n} points")
    if k == n:
        return np.arange(n), 0.0
    rng = np.random.default_rng(seed)
    columns = np.ascontiguousarray(points.T)
    norm_bound = float(np.sqrt(np.add.reduce(np.square(columns), axis=0).max()))
    best_labels, best_inertia = None, np.inf
    for _ in range(N_RESTARTS):
        centers = _plusplus_init(columns, k, rng)
        labels, inertia = _lloyd(points, centers, columns, norm_bound)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, best_inertia
