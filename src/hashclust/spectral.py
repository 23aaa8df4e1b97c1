"""Code graph construction and normalized-cut spectral clustering.

Vertices are the global codebook entries; the edge weight between two codes
is ``degree_i * degree_j / hamming(code_i, code_j)``, so heavily-populated
codes that sit close in hamming space are strongly tied, and a code's own
samples tie it to itself with ``KERNEL_AT_ZERO * degree_i**2``. The graph
is its codebook: ``build_graph`` checks that the book's codes are distinct
and returns the book, and the cut checks every book it reads through it. The
book's ``network.code_words`` rows (the form batch selection compares too),
degrees and code length L are all the cut reads.
The kernel f(h) = 1 / h, with f(0) = f0 = KERNEL_AT_ZERO, is one table,
``_divisors(L)``; both products divide by it, and ``_dense_weights`` builds
the dense n x n weights. The graph is cut with the
classic spectral relaxation (symmetric normalized Laplacian, k smallest
eigenvectors, row-normalized embedding, k-means), which is what the cited
method prescribes; each k-means step re-seeds the clusters it empties and
then updates every centre with ``np.bincount`` (see ``kmeans``). A cut
into one cluster needs neither: every vertex goes to cluster 0. The first
eigenvector is known, D^{1/2} 1 normalized (von Luxburg, Stat. Comput. 2007,
Prop. 3); the other k - 1 come from LOBPCG (Knyazev, SIAM J. Sci. Comput.
2001), a block eigensolver that touches the graph only through products
W @ X and keeps its blocks orthogonal to the known one. Each iteration
applies W to the k - 1 new residual directions alone: the previous step's
directions P and W @ P
are combinations of the basis and its W-image, made orthonormal in Ritz
coordinates (Hetmaniuk & Lehoucq, J. Comput. Phys. 2006). The residuals
are projected out of [v1, X, P] twice and made orthonormal by a thin QR of
their k - 1 columns, then projected and factored once more; no QR of the
tall basis runs, and the blocks live in column slices of two pairs of
arrays that the iterations write in turn. A weight is a
function of c_i XOR c_j, so W @ X can skip the n x n matrix: scatter onto
the 2**L code cube, a Walsh-Hadamard transform, a multiply by the
transformed kernel, the transform again, a gather at the codes; a code's cube
index is its top L bits, ``codes[:, 0] >> (64 - L)``. Each transform stage
is a batch of small matmuls along one digit of the cube index, of radix 16
or a smaller remainder (the lowest digit in blocks of 256 rows, the top one
in chunks of 256 columns).
The product allocates three cube buffers once and reuses them for every
column of every call: a scatter cube that holds zeros away from the codes'
indices and that the transforms only read, so it is never cleared, and two
that the stages write in turn. The stage matrices and the transformed kernel
depend on L alone; they are made once and kept for the last L cut. That costs
O(L * 2**L) per column against n**2 for the dense product, and is taken when
it is the cheaper of the two and L <= TRANSFORM_MAX_CODE_LENGTH. Graphs
under 5·k vertices (five times the cluster count), too small for a basis of
3·k columns to leave room for the rest of the spectrum, use a dense ``eigh``
of the Laplacian (SciPy's lobpcg draws the same line), which is also the
fallback when LOBPCG does not converge; both build the dense weights, up to
DENSE_SOLVER_MAX_VERTICES. The test suite checks the cut against an
exhaustive minimizer of the volume-normalized Ncut on small graphs, the transform product against the
dense one, and the LOBPCG eigenvectors against the dense ones.
"""

from __future__ import annotations

import functools

import numpy as np

from .codebook import Codebook
from .errors import InconsistentStateError, InvalidSpecError, ShapeError, check_integer
from .kmeans import kmeans
from .network import group_words

# f0, the kernel at hamming distance 0: samples that share a code are closer
# than those of any two codes, so a code's self weight f0 * d_i**2 exceeds the
# d_i * d_j of a neighbour at distance 1. With W_ii = 0 a cluster whose samples
# share a few codes has little affinity inside it, and the cut can split it up
# or fold it into another. 4 is a power of two, so the divisor 1/4 and
# W_ii = 4 * d_i**2 are exact; f0 = 8 and 16 cut nearly alike, f0 = 2 worse.
KERNEL_AT_ZERO = 4

# Checked before a code graph is made dense, which holds one n x n float64
# array (8 B per vertex pair). LOBPCG on dense weights adds little to it; the
# dense eigh fallback needs about 45 B per pair, about 3 GB at 2**13 vertices
# (of an 8 GB host). 2**16 would need 77 GB.
DENSE_SOLVER_MAX_VERTICES = 2 ** 13

# The Walsh-Hadamard product holds four float64 arrays over the 2**L code
# cube for its lifetime, the transformed kernel and three cube buffers: 2 MB
# at L = 16, 128 MB at this bound of L = 22 (the kernel is transformed in two,
# before the cube buffers are made). The transformed kernel of the last L cut
# stays cached after the product is gone: 32 MB at this bound.
TRANSFORM_MAX_CODE_LENGTH = 22

# Entries of the dense weights computed at once, in whole rows. Beside W, a
# block's code XORs, distances and divisors then take 512 KB each at L <= 64
# and stay in cache; blocks of 256 whole rows, 16 MB each at 2**13 codes, made
# the divisor gather 1.6x slower there.
_DENSE_BLOCK_ENTRIES = 2 ** 16

# LOBPCG stops when every wanted Ritz pair has a residual norm at most
# LOBPCG_TOLERANCE (the normalized adjacency has norm at most 1), and gives up
# after LOBPCG_MAX_ITER iterations; spectral_cluster then takes the dense path.
LOBPCG_TOLERANCE = 1e-8
LOBPCG_MAX_ITER = 200


def build_graph(book: Codebook) -> Codebook:
    """The code graph of a codebook, which is the book itself; repeated codes,
    which a decoded book may hold, are refused. The cut checks every book it
    reads through here, as each code is one vertex."""
    _, starts = group_words(book.codes)
    if len(starts) != len(book):
        raise InconsistentStateError("duplicate codes in codebook")
    return book


def _divisors(length: int) -> np.ndarray:
    """The kernel as a table over the distance h = 0..L: W_ij = d_i * d_j /
    divisors[h_ij], with divisors[h] = h, and 1 / KERNEL_AT_ZERO at h = 0 so
    that W_ii = f0 * d_i**2, exactly."""
    return np.array([1 / KERNEL_AT_ZERO, *range(1, length + 1)])


def _matrix_free(book: Codebook) -> bool:
    """Whether W @ x goes through the Walsh-Hadamard transform: its 2**L
    cube fits the memory bound, and its L * 2**L operations per column
    are fewer than the n**2 of the dense product."""
    length = book.code_length
    return length <= TRANSFORM_MAX_CODE_LENGTH and len(book) ** 2 > length << length


def _dense_weights(book: Codebook) -> np.ndarray:
    """The n x n weights, a block of rows at a time; the only place W is built."""
    n = len(book)
    if n > DENSE_SOLVER_MAX_VERTICES:
        raise ShapeError(
            f"{n} codes exceed the dense solver bound of {DENSE_SOLVER_MAX_VERTICES} vertices"
        )
    # every degree is at most MAX_DEGREE = 2**24, so float64 holds it exactly
    codes, degrees, divisors = book.codes, book.degrees.astype(np.float64), _divisors(book.code_length)
    weights = np.empty((n, n))
    step = max(1, _DENSE_BLOCK_ENTRIES // n)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        # popcount of XOR: the exact integer distances, as intp so that they
        # index the divisors without a cast. d_i * d_j rounds once and the
        # division by the divisor once; 1/f0 on the diagonal gives f0 * d_i**2.
        ham = np.bitwise_count(codes[rows, None, :] ^ codes[None, :, :]).sum(axis=2, dtype=np.intp)
        block = weights[rows]
        np.multiply.outer(degrees[rows], degrees, out=block)
        block /= divisors[ham]
    return weights


def _hadamard(bits: int) -> np.ndarray:
    """The 2**bits x 2**bits Sylvester Hadamard matrix, entries +-1."""
    index = np.arange(1 << bits)
    return 1.0 - 2.0 * (np.bitwise_count(index[:, None] & index[None, :]) & 1)


def _fwht(src: np.ndarray, dst: np.ndarray, spare: np.ndarray, stages) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized Walsh-Hadamard transform of one contiguous 2**L vector.

    ``stages`` holds Hadamard matrices of 16 x 16 and, when L is not a
    multiple of 4, one smaller remainder; the index bits split into digits of
    those radices, lowest digit first. Each stage applies its matrix along one
    digit of the vector viewed as (blocks, radix, stride), as a batch of small
    matmuls on views of the vector: the lowest digit as (..., 256, radix) @ H,
    the top one as H @ (radix, 256) chunks of a transposed view, and the
    digits between as H @ (radix, stride) blocks. Each output still sums the
    same radix +-1 products as one matmul per stage would, and the tests hold
    the two equal bit for bit. The transform runs one column at a time so
    that the vector stays in cache. The first stage reads ``src``; the stages
    write ``dst`` and ``spare`` in turn, so ``src`` is left as it was unless
    it is ``spare``. Returns (the buffer that holds the transform, the other).
    """
    stride = 1
    for h in stages:
        radix = h.shape[0]
        if stride == 1:
            rows = min(256, src.size // radix)
            np.matmul(src.reshape(-1, rows, radix), h, out=dst.reshape(-1, rows, radix))
        elif stride * radix == src.size:
            chunk = min(256, stride)
            np.matmul(
                h,
                src.reshape(radix, -1, chunk).transpose(1, 0, 2),
                out=dst.reshape(radix, -1, chunk).transpose(1, 0, 2),
            )
        else:
            np.matmul(h, src.reshape(-1, radix, stride), out=dst.reshape(-1, radix, stride))
        src, dst, spare = dst, spare, dst
        stride *= radix
    return src, dst


@functools.lru_cache(maxsize=1)
def _cube_constants(length: int):
    """(the transform stages, the kernel's Walsh-Hadamard spectrum) for L-bit
    codes, read-only. They depend on L alone, so one cut's are the next
    one's; the cache holds those of the last L, whose spectrum of 2**L
    float64 takes 512 KB at L = 16 and at most 32 MB, at L = 22."""
    size = 1 << length
    stages = [_hadamard(4)] * (length // 4) + ([_hadamard(length % 4)] if length % 4 else [])
    kernel = 1.0 / _divisors(length)[np.bitwise_count(np.arange(size))]
    spectrum, _ = _fwht(kernel, np.empty(size), kernel, stages)
    for table in (*stages, spectrum):
        table.flags.writeable = False
    return tuple(stages), spectrum


def _transform_product(book: Codebook):
    """X -> W @ X without the n x n weights.

    W = D K D with K_ij = f(c_i XOR c_j), f(x) = 1 / divisors[popcount(x)].
    K is a convolution over the code cube Z_2^L, so the Walsh-Hadamard
    transform H diagonalizes it: K y = H (Hf * Hy) / 2**L. Each column of
    D X is scattered onto the cube, transformed, multiplied by Hf, transformed
    back and gathered at the codes, then scaled by D / 2**L. The stages and
    Hf come from ``_cube_constants``. The product allocates three cube
    buffers once and reuses them for every column of
    every call: the scatter cube, zero except at the codes' indices, which
    each column overwrites there and the transforms only read, and two that
    the transform stages write in turn. So one product must not run in two
    threads at once; what it returns is a new array.
    """
    length = book.code_length
    size = 1 << length
    stages, spectrum = _cube_constants(length)
    # L <= TRANSFORM_MAX_CODE_LENGTH: one word, the code in its top L bits
    index = (book.codes[:, 0] >> (64 - length)).astype(np.intp)
    degrees = book.degrees.astype(np.float64)
    scatter, cube, other = np.zeros(size), np.empty(size), np.empty(size)

    def product(x):
        y = degrees[:, None] * x
        out = np.empty_like(y)
        for j in range(y.shape[1]):
            scatter[index] = y[:, j]
            spec, spare = _fwht(scatter, cube, other, stages)
            spec *= spectrum
            out[:, j] = _fwht(spec, spare, spec, stages)[0][index]
        out *= (degrees / size)[:, None]
        return out

    return product


def _operator(graph):
    """(dense weights or None, the product X -> W @ X, the weighted degrees)."""
    if isinstance(graph, Codebook) and _matrix_free(graph):
        product = _transform_product(build_graph(graph))
        return None, product, product(np.ones((len(graph), 1)))[:, 0]
    w = _adjacency(graph)
    return w, w.__matmul__, w.sum(axis=1)


def _adjacency(graph) -> np.ndarray:
    """The dense weights: a code graph's own, whose codes must be distinct,
    or a square array's, whose entries must be finite and nonnegative."""
    if isinstance(graph, Codebook):
        return _dense_weights(build_graph(graph))
    w = np.asarray(graph, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"adjacency must be square, got {w.shape}")
    if not (np.isfinite(w).all() and (w >= 0).all()):
        raise ShapeError("adjacency weights must be finite and nonnegative")
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


def _orthonormal_complement(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning r's part orthogonal to the orthonormal v.

    Block Gram-Schmidt twice, then the thin QR of r's columns, then once more
    both: twice is enough (Giraud, Langou & Rozložník, Comput. Math. Appl.
    2005). The last pass keeps the columns orthogonal to v where a column of r
    is zero or lies in span(v), whose QR column is then a unit vector the QR
    picked, not yet orthogonal to v.
    """
    for _ in range(2):
        r = r - v @ (v.T @ r)
    q = np.linalg.qr(r)[0]
    return np.linalg.qr(q - v @ (v.T @ q))[0]


def _lobpcg(product, inv_sqrt: np.ndarray, k: int):
    """The k largest eigenvectors of M = D^{-1/2} W D^{-1/2}, k >= 2, or None.

    These are the eigenvectors of the k smallest eigenvalues of the
    normalized Laplacian I - M; they come back in that order, as columns.
    The first is known: M has nonnegative entries and spectral radius 1, and
    v1 = D^{1/2} 1 / ||D^{1/2} 1|| has M v1 = v1 (zero where the degree is
    zero), so it is column 0 without a product. LOBPCG finds the other k - 1
    in the complement of v1. Each iteration runs Rayleigh-Ritz on
    span[X, P, R]: the current block, the previous step's directions and the
    residuals. X and P are combinations of the basis with orthonormal Ritz
    coordinates, so they and their M-images come from the basis and its
    M-image without a product. The residuals are made orthonormal to v1, X
    and P by ``_orthonormal_complement``: block Gram-Schmidt twice and the
    thin Householder QR of their k - 1 columns, then both once more. The
    QR stays orthonormal to rounding as the residuals shrink (a Cholesky of
    their Gram matrix would break down). M is applied as scale, ``product``
    (X -> W @ X), scale, only to those k - 1 new columns per iteration; the
    Laplacian is never formed. [v1, X, P, R] and their M-images are column
    slices of two pairs of column-major arrays that the iterations write in
    turn, so no block is copied to join them. The start block is
    drawn from a fixed-seed generator, so the result depends on the graph
    alone. Returns None when LOBPCG_MAX_ITER iterations do not reach
    LOBPCG_TOLERANCE.
    """
    top = np.zeros((inv_sqrt.size, 1))
    pos = inv_sqrt > 0
    top[pos, 0] = 1.0 / inv_sqrt[pos]
    top /= np.linalg.norm(top)

    def apply(x, out):
        np.multiply(inv_sqrt[:, None], product(inv_sqrt[:, None] * x), out=out)

    m = k - 1
    n = inv_sqrt.size
    # [v1, X, P, R] and their M-images (column 0 unused), column-major so
    # that every block is a contiguous column slice; an iteration reads one
    # pair of arrays and writes the other
    (vectors, images), spare = [[np.empty((n, 1 + 3 * m), order="F") for _ in range(2)] for _ in range(2)]
    vectors[:, 0] = spare[0][:, 0] = top[:, 0]
    start = np.random.default_rng(0).standard_normal((n, m))
    vectors[:, 1:k] = np.linalg.qr(np.hstack([top, start]))[0][:, 1:]
    apply(vectors[:, 1:k], images[:, 1:k])
    width = m
    for _ in range(LOBPCG_MAX_ITER):
        basis, mbasis = vectors[:, 1 : 1 + width], images[:, 1 : 1 + width]
        g = basis.T @ mbasis
        vals, vecs = np.linalg.eigh((g + g.T) / 2.0)
        vals, c = vals[::-1][:m], vecs[:, ::-1][:, :m]
        # P is the step from the old block, c without its X rows, made
        # orthonormal to c in Ritz coordinates; empty on the first iteration,
        # where the reduced QR of the m x 2m coordinates has only m columns.
        step = c.copy()
        step[:m] = 0.0
        coords = np.hstack([c, np.linalg.qr(np.hstack([c, step]))[0][:, m:]])
        (vectors, images), spare = spare, (vectors, images)
        kept = 1 + coords.shape[1]  # v1, X and P
        np.matmul(basis, coords, out=vectors[:, 1:kept])
        np.matmul(mbasis, coords, out=images[:, 1:kept])
        r = images[:, 1:k] - vectors[:, 1:k] * vals
        if np.linalg.norm(r, axis=0).max() <= LOBPCG_TOLERANCE:
            return np.ascontiguousarray(vectors[:, :k])
        vectors[:, kept : kept + m] = _orthonormal_complement(r, vectors[:, :kept])
        apply(vectors[:, kept : kept + m], images[:, kept : kept + m])
        width = kept - 1 + m
    return None


def spectral_cluster(graph, k: int, seed) -> np.ndarray:
    """Normalized-cut clustering via the spectral relaxation.

    ``graph`` is a book of distinct codes (InconsistentStateError
    otherwise, as ``build_graph`` raises) or a dense square weight matrix of
    finite, nonnegative entries (ShapeError otherwise). Takes the
    eigenvectors of the k smallest Laplacian eigenvalues (LOBPCG from 5·k
    vertices up, five times the cluster count; dense ``eigh`` below that or
    when LOBPCG does not converge), row-normalizes the embedding (zero rows
    stay zero), and runs seeded k-means (k-means++ starts, 10 restarts, 300
    iteration cap). Vertices with zero weighted degree go straight to cluster
    0, except where k equals the vertex count: then vertex i is cluster i
    (``arange(n)``), zero-degree vertices too; else k = 1 puts every vertex
    in cluster 0 with no embedding or k-means. A matrix-free book is made
    dense only for ``eigh``, which raises ShapeError above
    DENSE_SOLVER_MAX_VERTICES. Deterministic for a fixed seed.
    """
    w, product, deg = _operator(graph)
    n = deg.size
    check_integer(k, "k", 1)
    check_integer(seed, "seed", 0)
    if k > n:
        raise InvalidSpecError(f"k={k} incompatible with {n} vertices")
    if k == n:
        return np.arange(n)
    if k == 1 or not (deg > 0).any():
        return np.zeros(n, dtype=np.int64)
    emb = _lobpcg(product, _inv_sqrt(deg), k) if n >= 5 * k else None
    if emb is None:
        _, vecs = np.linalg.eigh(normalized_laplacian(graph if w is None else w))
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
    the same sample order. The global rows and every site's rows are grouped
    together by ``network.group_words``, in any global order; a site book of
    another code length, or a site code whose group holds no global row,
    raises InconsistentStateError.
    """
    partition = np.asarray(partition)
    n_global = len(global_book)
    if partition.shape != (n_global,):
        raise ShapeError("partition does not match the global codebook")
    site_maps = list(site_maps)
    for book, _ in site_maps:
        if book.code_length != global_book.code_length:
            raise InconsistentStateError(
                f"codebook {book.origin!r} has {book.code_length}-bit codes, "
                f"the global book {global_book.code_length}-bit codes"
            )
    rows = np.concatenate([global_book.codes, *(book.codes for book, _ in site_maps)])
    order, starts = group_words(rows)
    # the stable order puts a group's global row, if it has one, first
    vertex = np.empty(len(order), dtype=np.intp)
    vertex[order] = np.repeat(order[starts], np.diff(starts, append=len(order)))
    out = []
    end = n_global
    for book, sample_to_entry in site_maps:
        site_vertex = vertex[end : end + len(book)]
        end += len(book)
        if (site_vertex >= n_global).any():
            raise InconsistentStateError(
                f"codebook {book.origin!r} holds a code missing from the global book"
            )
        out.append(partition[site_vertex[np.asarray(sample_to_entry)]])
    return out
