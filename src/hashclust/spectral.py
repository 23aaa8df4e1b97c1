"""Code graph construction and normalized-cut spectral clustering.

Vertices are the global codebook entries; the edge weight between two codes
is ``degree_i * degree_j / hamming(code_i, code_j)``, so heavily-populated
codes that sit close in hamming space are strongly tied. The graph is cut
with the classic spectral relaxation (symmetric normalized Laplacian,
k smallest eigenvectors, row-normalized embedding, k-means), and an
exhaustive minimizer over labelings doubles as a test oracle on small
graphs.

The cut objective evaluated here measures part volume as the *number of
vertices* in the part (not the weighted degree sum); the spectral relaxation
is the standard one regardless, which is what the cited method prescribes.
"""

from __future__ import annotations

import numpy as np

from .codebook import Codebook
from .errors import (
    InconsistentStateError,
    InvalidCodebookError,
    InvalidKError,
    InvalidPartitionError,
    OracleSizeError,
    ShapeError,
    UnsupportedSizeError,
)
from .kmeans import kmeans
from .network import HashCode

BRUTE_FORCE_MAX_VERTICES = 12
# Checked before build_graph allocates: the dense cut holds several n x n
# float64 arrays at once. 4000 codes peak at 788 MB RSS, about 45 B per vertex
# pair, so 2**13 vertices need about 3 GB (of an 8 GB host); 2**16, 190 GB.
DENSE_SOLVER_MAX_VERTICES = 2 ** 13


def hamming(a: HashCode, b: HashCode) -> int:
    """Number of differing positions; L1 distance of +-1 codes is twice this."""
    if a.length != b.length:
        raise ShapeError(f"codes have lengths {a.length} and {b.length}")
    return int((a.bits != b.bits).sum())


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


def ncut_value(graph, labels, k: int) -> float:
    """Normalized-cut objective: half the sum over parts of cut(part) / |part|.

    ``|part|`` counts vertices. Every label in [0, k) must be present.
    """
    w = _adjacency(graph)
    labels = np.asarray(labels)
    if labels.shape != (w.shape[0],):
        raise ShapeError("labels must assign every vertex")
    if labels.min() < 0 or labels.max() >= k:
        raise InvalidPartitionError(f"labels outside [0, {k})")
    total = 0.0
    for c in range(k):
        mask = labels == c
        if not mask.any():
            raise InvalidPartitionError(f"cluster {c} is empty")
        total += w[mask][:, ~mask].sum() / mask.sum()
    return 0.5 * total


def _growth_strings(n: int, k: int):
    """All surjective labelings in canonical (restricted growth) form, lex order."""
    labels = np.zeros(n, dtype=np.int64)

    def rec(i: int, used: int):
        if i == n:
            if used == k:
                yield labels.copy()
            return
        # pruning: remaining positions must still be able to reach k labels
        if used + (n - i) < k:
            return
        for v in range(min(used + 1, k)):
            labels[i] = v
            yield from rec(i + 1, used + (1 if v == used else 0))

    yield from rec(1, 1) if n else iter(())


def brute_force_ncut(graph, k: int) -> np.ndarray:
    """Exhaustive minimizer of the cut objective; small graphs only.

    Returns the lexicographically smallest label vector among minimizers.
    """
    w = _adjacency(graph)
    n = w.shape[0]
    if n > BRUTE_FORCE_MAX_VERTICES:
        raise OracleSizeError(f"{n} vertices exceeds the enumeration bound")
    if k < 1 or k > n:
        raise InvalidKError(f"k={k} incompatible with {n} vertices")
    best, best_value = None, np.inf
    for labels in _growth_strings(n, k):
        value = ncut_value(w, labels, k)
        if value < best_value - 1e-15:
            best, best_value = labels, value
    return best


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
