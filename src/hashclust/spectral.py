"""Code graph construction and normalized-cut spectral clustering.

Vertices are the global codebook entries; the edge weight between two codes
is ``degree_i * degree_j / hamming(code_i, code_j)``, so heavily-populated
codes that sit close in hamming space are strongly tied. The graph is cut
with the classic spectral relaxation (symmetric normalized Laplacian,
k smallest eigenvectors, row-normalized embedding, k-means), which is what
the cited method prescribes. The k eigenvectors come from LOBPCG (Knyazev,
SIAM J. Sci. Comput. 2001), a block eigensolver that touches the graph only
through products W @ X. Graphs under 5k vertices, too small for a basis of 3k
columns to leave room for the rest of the spectrum, use a dense ``eigh`` of the
Laplacian (SciPy's lobpcg draws the same line), which is also the fallback
when LOBPCG does not converge. The test suite checks the cut against an
exhaustive minimizer of the cut objective on small graphs, and the LOBPCG
eigenvectors against the dense ones.
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

# Checked before build_graph allocates, which holds two n x n float64 arrays at
# its peak. With LOBPCG, 4000 codes peak at 293 MB RSS, about 18 B per vertex
# pair, so 2**13 vertices need about 1.2 GB; the dense eigh fallback needs about
# 45 B per pair, about 3 GB at 2**13 (of an 8 GB host). 2**16 would need 77 GB.
DENSE_SOLVER_MAX_VERTICES = 2 ** 13

# LOBPCG stops when every wanted Ritz pair has a residual norm at most
# LOBPCG_TOLERANCE (the normalized adjacency has norm at most 1), and gives up
# after LOBPCG_MAX_ITER iterations; spectral_cluster then takes the dense path.
LOBPCG_TOLERANCE = 1e-8
LOBPCG_MAX_ITER = 200


def build_graph(book: Codebook) -> np.ndarray:
    """Dense adjacency over the entries: W_ij = d_i * d_j / hamming(c_i, c_j), zero diagonal."""
    if len(book) > DENSE_SOLVER_MAX_VERTICES:
        raise UnsupportedSizeError(f"{len(book)} codes exceed the dense solver bound")
    packed = [e.code.packed for e in book.entries]
    if len(set(packed)) != len(packed):
        raise InvalidCodebookError("duplicate codes in codebook")
    length = book.code_length
    bits = np.stack([e.code.bits for e in book.entries]).astype(np.float64)
    degrees = np.array([e.degree for e in book.entries], dtype=np.float64)
    # inner product of +-1 codes: <a, b> = L - 2 * hamming(a, b). In float64
    # the matmul sums integers of magnitude at most L exactly, and d_i * d_j
    # rounds once, as the integer product did when it was divided.
    ham = bits @ bits.T
    np.subtract(length, ham, out=ham)
    ham /= 2.0
    weights = np.outer(degrees, degrees)
    with np.errstate(divide="ignore"):
        weights /= ham
    np.fill_diagonal(weights, 0.0)
    return weights


def _adjacency(graph) -> np.ndarray:
    w = np.asarray(graph, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"adjacency must be square, got {w.shape}")
    return w


def _inv_sqrt(deg: np.ndarray) -> np.ndarray:
    """D^{-1/2} as a vector; zero where the weighted degree is zero."""
    inv_sqrt = np.zeros_like(deg)
    pos = deg > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    return inv_sqrt


def normalized_laplacian(graph) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2} (weighted degrees)."""
    w = _adjacency(graph)
    inv_sqrt = _inv_sqrt(w.sum(axis=1))
    lap = np.eye(w.shape[0]) - (inv_sqrt[:, None] * w) * inv_sqrt[None, :]
    return (lap + lap.T) / 2.0


def _lobpcg(w: np.ndarray, inv_sqrt: np.ndarray, k: int):
    """The k largest eigenvectors of M = D^{-1/2} W D^{-1/2}, or None.

    These are the eigenvectors of the k smallest eigenvalues of the
    normalized Laplacian I - M; they come back in that order, as columns.
    Each iteration runs Rayleigh-Ritz on span[X, R, P]: the current block,
    its residuals and the previous step's directions, made orthonormal by a
    Householder QR, which stays orthonormal to rounding as the residuals
    shrink (a Cholesky of their Gram matrix would break down). M is applied as
    scale, W @ X, scale; the Laplacian is never formed. The start block is
    drawn from a fixed-seed generator, so the result depends on the graph
    alone. Returns None when LOBPCG_MAX_ITER iterations do not reach
    LOBPCG_TOLERANCE.
    """

    def apply(x):
        return inv_sqrt[:, None] * (w @ (inv_sqrt[:, None] * x))

    x = np.linalg.qr(np.random.default_rng(0).standard_normal((w.shape[0], k)))[0]
    basis, mbasis = x, apply(x)
    for _ in range(LOBPCG_MAX_ITER):
        g = basis.T @ mbasis
        vals, vecs = np.linalg.eigh((g + g.T) / 2.0)
        vals, c = vals[::-1][:k], vecs[:, ::-1][:, :k]
        x, mx = basis @ c, mbasis @ c
        p = basis[:, k:] @ c[k:]
        r = mx - x * vals
        if np.linalg.norm(r, axis=0).max() <= LOBPCG_TOLERANCE:
            return x
        q = np.linalg.qr(np.hstack([x, r, p]))[0][:, k:]
        basis, mbasis = np.hstack([x, q]), np.hstack([mx, apply(q)])
    return None


def spectral_cluster(graph, k: int, seed) -> np.ndarray:
    """Normalized-cut clustering via the spectral relaxation.

    Takes the eigenvectors of the k smallest Laplacian eigenvalues (LOBPCG
    from 5k vertices up, dense ``eigh`` below that or when LOBPCG does not
    converge), row-normalizes the embedding (zero rows stay zero), and runs
    seeded k-means (k-means++ starts, 10 restarts, 300 iteration cap). Vertices
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
    emb = _lobpcg(w, _inv_sqrt(deg), k) if n >= 5 * k else None
    if emb is None:
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
