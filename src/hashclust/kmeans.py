"""Seeded k-means with k-means++ initialization.

Small, dense, and fully deterministic for a fixed seed: restarts draw from a
single generator in a fixed order, assignment ties go to the lowest cluster
index (argmin behavior), and an emptied cluster is re-seeded with the point
farthest from its current center. Each call makes the points' (d, n) column
copy and their largest norm once, for every restart.

A Lloyd step takes every point-centre distance from one matrix product of
the centres with the columns and gives each point the centre the direct
distances ||p - c||**2 would give it. One tie bound serves every point: the
product's rounding error, bounded at the largest point norm. A point whose
second-best centre scores within it of the best is settled by its direct
distances; a larger bound only sends more points there. With d >= 2 and no
cluster empty, all k centres come from one ``np.bincount`` of the labels and
one weighted ``np.bincount`` per coordinate: each adds a centre's points in
index order, as the mean of its rows does, so the centres are bit for bit
those means. The per-cluster mean of the masked rows stays for d = 1, where
numpy sums the one column pairwise, and for a step that empties a cluster,
whose re-seeding moves a point between the means.

A restart stops as soon as a step assigns the labels that the previous step
made its centres from without a re-seed: making them again would give the
same centres, and those centres gave these labels, so neither the update
nor a closing assignment runs. Labels that repeat across a re-seed, and a
restart that reaches ``MAX_ITER``, end as Lloyd's loop does: with one more
assignment from the last centres. The inertia is summed from each point's
difference to its own centre.

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


def _assign(points: np.ndarray, columns: np.ndarray, norm_bound: float,
            centers: np.ndarray) -> np.ndarray:
    """Each point's nearest centre, as the direct distances ||p - c||**2 pick it.

    The distances come from one matrix product: ||c||**2 - 2 c.p differs from
    ||p - c||**2 by ||p||**2, the same for every centre. Its rounding and that
    of the direct form differ by less than ``slack``, taken at ``norm_bound``,
    no point's norm being larger, so a point whose best two centres are
    further apart gets the same centre either way; the rare point with a
    second centre within ``slack`` is a near tie and is settled by its direct
    distances (lowest index on exact ties). Scores are held centre by centre,
    so each step is one pass over the points.
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
    slack = 4 * (points.shape[1] + 3) * np.finfo(np.float64).eps * (norm_bound + np.sqrt(sq.max())) ** 2
    near = second <= best + slack
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
    labels, full = None, False
    for _ in range(MAX_ITER):
        new_labels = _assign(points, columns, norm_bound, centers)
        if full and np.array_equal(labels, new_labels):
            # the last step made these centres from the same labels with no
            # re-seed, so this one would make them again: they are final
            return labels, _inertia(points, centers, labels)
        counts = np.bincount(new_labels, minlength=k)
        full = bool(counts.all())
        if d >= 2 and full:
            # each centre sums its points in index order, as the mean of
            # its rows would, then divides by its count
            for j in range(d):
                centers[:, j] = np.bincount(new_labels, weights=columns[j], minlength=k)
            centers /= counts[:, None]
        else:
            previous = centers.copy()
            for c in range(k):
                mask = new_labels == c
                if mask.any():
                    centers[c] = points[mask].mean(axis=0)
                else:
                    # re-seed an empty cluster with the worst-fit point
                    fit = ((points - previous[new_labels]) ** 2).sum(axis=1)
                    far = int(np.argmax(fit))
                    centers[c] = points[far]
                    new_labels[far] = c
        if labels is not None and np.array_equal(labels, new_labels):
            break
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
