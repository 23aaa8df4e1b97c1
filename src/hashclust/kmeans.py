"""Seeded k-means with k-means++ initialization.

Small, dense, and fully deterministic for a fixed seed: restarts draw from a
single generator in a fixed order, assignment ties go to the lowest cluster
index (argmin behavior), and an emptied cluster is re-seeded with the point
farthest from its current center.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidKError

N_RESTARTS = 10
MAX_ITER = 300


def _plusplus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = int(rng.choice(n, p=probs))
        else:
            idx = int(rng.integers(n))
        centers[c] = points[idx]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray):
    labels = None
    for _ in range(MAX_ITER):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        for c in range(centers.shape[0]):
            mask = new_labels == c
            if mask.any():
                centers[c] = points[mask].mean(axis=0)
            else:
                # re-seed an empty cluster with the worst-fit point
                far = int(np.argmax(d2[np.arange(points.shape[0]), new_labels]))
                centers[c] = points[far]
                new_labels[far] = c
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(points.shape[0]), labels].sum())
    return labels, inertia


def kmeans(points, k: int, seed):
    """Cluster rows of ``points`` into k groups; returns (labels, inertia).

    Runs ``N_RESTARTS`` independent k-means++ starts of at most ``MAX_ITER``
    Lloyd iterations and keeps the lowest inertia (first winner on ties).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k < 1 or k > n:
        raise InvalidKError(f"k={k} incompatible with {n} points")
    if k == n:
        return np.arange(n), 0.0
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(N_RESTARTS):
        centers = _plusplus_init(points, k, rng)
        labels, inertia = _lloyd(points, centers)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, best_inertia
