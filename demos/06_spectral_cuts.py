"""Cutting the code graph: degree-weighted affinities and the spectral
relaxation of the normalized cut.

Vertices are distinct codes; the edge between two codes grows with both
degrees and shrinks with their Hamming distance. Here the graph has two
planted blocks joined by a weak bridge, and the spectral relaxation should
recover them. (The test suite cross-checks it against an exhaustive search
over all cuts of small graphs.)
"""

import numpy as np

from hashclust import spectral_cluster

# two tight groups of vertices with a weak bridge between them
rng = np.random.default_rng(31)
n = 8
labels_true = np.array([0, 0, 0, 0, 1, 1, 1, 1])
w = np.zeros((n, n))
for i in range(n):
    for j in range(i + 1, n):
        w[i, j] = w[j, i] = rng.uniform(8.0, 10.0) if labels_true[i] == labels_true[j] else 0.2


def cut_weight(labels):
    """Total edge weight between the two parts."""
    return w[labels == 0][:, labels == 1].sum()


found = spectral_cluster(w, 2, seed=5)
same = np.array_equal(found, labels_true) or np.array_equal(found, 1 - labels_true)
print(f"planted blocks:      {labels_true.tolist()}  cut weight {cut_weight(labels_true):.2f}")
print(f"spectral relaxation: {found.tolist()}  cut weight {cut_weight(found):.2f}")
print(f"recovers the planted blocks (up to label names): {same}")

# with no bridge at all the blocks are disconnected and the cut is empty
w[labels_true[:, None] != labels_true[None, :]] = 0.0
found = spectral_cluster(w, 2, seed=5)
print(f"\nafter deleting the bridge: {found.tolist()}  cut weight {cut_weight(found):.2f}")
