"""Code graph construction and normalized-cut spectral clustering.

Vertices are the global codebook entries; the edge weight between two codes
is ``degree_i * degree_j / hamming(code_i, code_j)``, so heavily-populated
codes that sit close in hamming space are strongly tied. The graph is cut
with the classic spectral relaxation (symmetric normalized Laplacian,
k smallest eigenvectors, row-normalized embedding, k-means), which is what
the cited method prescribes. The test suite checks it against an exhaustive
minimizer of the cut objective on small graphs.
"""

from __future__ import annotations

import numpy as np

from .codebook import Codebook
from .errors import (
    InconsistentStateError,
    InvalidCodebookError,
    InvalidKError,
    ShapeError,
    UnsupportedSizeError,
)
from .kmeans import kmeans

# Checked before build_graph allocates: the dense cut holds several n x n
# float64 arrays at once. 4000 codes peak at 788 MB RSS, about 45 B per vertex
# pair, so 2**13 vertices need about 3 GB (of an 8 GB host); 2**16, 190 GB.
DENSE_SOLVER_MAX_VERTICES = 2 ** 13


def build_graph(book: Codebook) -> np.ndarray:
    """Dense adjacency over the entries: W_ij = d_i * d_j / hamming(c_i, c_j), zero diagonal."""
    if len(book) > DENSE_SOLVER_MAX_VERTICES:
        raise UnsupportedSizeError(f"{len(book)} codes exceed the dense solver bound")
    packed = [e.code.packed for e in book.entries]
    if len(set(packed)) != len(packed):
        raise InvalidCodebookError("duplicate codes in codebook")
    length = book.code_length
    bits = np.stack([e.code.bits for e in book.entries]).astype(np.int64)
    degrees = np.array([e.degree for e in book.entries], dtype=np.int64)
    # inner product of +-1 codes: <a, b> = L - 2 * hamming(a, b)
    ham = (length - bits @ bits.T) // 2
    with np.errstate(divide="ignore"):
        weights = np.outer(degrees, degrees) / ham
    np.fill_diagonal(weights, 0.0)
    return weights


def _adjacency(graph) -> np.ndarray:
    w = np.asarray(graph, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"adjacency must be square, got {w.shape}")
    return w


def normalized_laplacian(graph) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2} (weighted degrees)."""
    w = _adjacency(graph)
    deg = w.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    pos = deg > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    lap = np.eye(w.shape[0]) - (inv_sqrt[:, None] * w) * inv_sqrt[None, :]
    return (lap + lap.T) / 2.0


def spectral_cluster(graph, k: int, seed) -> np.ndarray:
    """Normalized-cut clustering via the spectral relaxation.

    Takes the eigenvectors of the k smallest Laplacian eigenvalues,
    row-normalizes the embedding (zero rows stay zero), and runs seeded
    k-means (k-means++ starts, 10 restarts, 300 iteration cap). Vertices
    with zero weighted degree go straight to cluster 0. Deterministic for a
    fixed seed.
    """
    w = _adjacency(graph)
    n = w.shape[0]
    if k < 1 or k > n:
        raise InvalidKError(f"k={k} incompatible with {n} vertices")
    if k == n:
        return np.arange(n)
    deg = w.sum(axis=1)
    if n == 1 or not (deg > 0).any():
        return np.zeros(n, dtype=np.int64)
    _, vecs = np.linalg.eigh(normalized_laplacian(w))
    emb = vecs[:, :k]
    norms = np.linalg.norm(emb, axis=1)
    emb = emb / np.where(norms > 0, norms, 1.0)[:, None]
    labels, _ = kmeans(emb, k, seed)
    labels = np.asarray(labels, dtype=np.int64)
    labels[deg == 0] = 0
    return labels


def propagate_labels(partition, global_book: Codebook, site_maps) -> list[np.ndarray]:
    """Give every sample its code's cluster label.

    ``site_maps`` is a list of (site codebook, per-sample entry index) pairs
    as returned by encode_shard; the result is one label array per site, in
    the same sample order.
    """
    partition = np.asarray(partition)
    if partition.shape != (len(global_book),):
        raise ShapeError("partition does not match the global codebook")
    position = {e.code.packed: i for i, e in enumerate(global_book.entries)}
    out = []
    for book, sample_to_entry in site_maps:
        try:
            vertex = np.array([position[e.code.packed] for e in book.entries])
        except KeyError:
            raise InconsistentStateError(
                f"codebook {book.origin!r} holds a code missing from the global book"
            ) from None
        out.append(partition[vertex[np.asarray(sample_to_entry)]])
    return out
