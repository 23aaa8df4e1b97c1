"""Independent verification helpers shared by the test modules.

Everything in here recomputes quantities by a different route than the
library (finite differences, exhaustive enumeration, brute-force
recounting, one pair or one code at a time) so agreement is meaningful.
No run of the library needs any of it.
"""

import numpy as np

from hashclust.codebook import Codebook, checked_code_words
from hashclust.errors import HashClustError, InvalidSpecError, ShapeError
from hashclust.kmeans import MAX_ITER, kmeans
from hashclust.loss import LossConfig, batch_loss
from hashclust.network import NetworkParams, forward
from hashclust.sampling import BucketIndex
from hashclust.spectral import _adjacency, _hadamard, normalized_laplacian

BRUTE_FORCE_MAX_VERTICES = 12


class InvalidPartitionError(HashClustError):
    """A partition has an empty part or out-of-range labels."""


class OracleSizeError(HashClustError):
    """Graph too large for exhaustive enumeration."""


# --- codes, one at a time ---

def binarize(h) -> np.ndarray:
    """Threshold one relaxed output vector to a +-1 code (int8); sign(0) maps to +1."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1:
        raise ShapeError("binarize takes a single vector; see binarize_batch")
    return np.where(h >= 0.0, 1, -1).astype(np.int8)


def packed(bits) -> bytes:
    """The packed bytes of one +-1 code: bit j, MSB-first within each byte,
    set where the code is +1; padding bits zero."""
    bits = np.asarray(bits)
    if bits.ndim != 1 or not np.all(np.abs(bits) == 1):
        raise ShapeError("a code is a vector of -1 and +1")
    return np.packbits(bits > 0).tobytes()


def unpacked(code: bytes, length: int) -> np.ndarray:
    """The +-1 bits (int8) of one packed L-bit code."""
    return np.unpackbits(np.frombuffer(code, dtype=np.uint8), count=length).astype(np.int8) * 2 - 1


def pack_bits_batch(bits: np.ndarray) -> list[bytes]:
    """Packed byte form for each row of a (B, L) +-1 array."""
    packed = np.packbits((bits > 0).astype(np.uint8), axis=1)
    return [row.tobytes() for row in packed]


def word_bytes(words: np.ndarray, length: int) -> list[bytes]:
    """The packed bytes of each ``network.code_words`` row, read one word at a time."""
    n_bytes = (length + 7) // 8
    return [b"".join(int(w).to_bytes(8, "big") for w in row)[:n_bytes] for row in words]


def codebook_of(codes, degrees, length: int, origin: str = "global") -> Codebook:
    """A book of packed L-bit codes (bytes, each checked) and their degrees, in the order given."""
    words = checked_code_words(list(codes), length)
    return Codebook.from_arrays(words, np.array(degrees, dtype=np.int64), length, origin)


def sorted_book(entries, origin: str = "global") -> Codebook:
    """A book of (+-1 bits, degree) pairs in ascending packed order, as a site
    or a merge holds its codes."""
    entries = sorted(entries, key=lambda e: packed(e[0]))
    return codebook_of([packed(b) for b, _ in entries], [d for _, d in entries], len(entries[0][0]), origin)


def hamming(a, b) -> int:
    """Number of differing positions of two +-1 codes; their L1 distance is twice this."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError(f"codes have lengths {a.size} and {b.size}")
    return int((a != b).sum())


# --- the pair loss, one pair at a time ---

def _input_distance(x_i, x_j) -> float:
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    if x_i.shape != x_j.shape or x_i.ndim != 1:
        raise ShapeError(f"input vectors disagree: {x_i.shape} vs {x_j.shape}")
    return float(np.linalg.norm(x_i - x_j))


def pair_loss_discrete(x_i, x_j, code_i, code_j, cfg: LossConfig) -> float:
    """Loss of one pair with hard +-1 codes, given as bit vectors."""
    code_i = np.asarray(code_i, dtype=np.float64)
    code_j = np.asarray(code_j, dtype=np.float64)
    if code_i.shape != code_j.shape:
        raise ShapeError("codes have different lengths")
    d_in = _input_distance(x_i, x_j)
    d_code = float(np.abs(code_i - code_j).sum())
    gap = cfg.distance_scale * d_in - d_code
    return abs(gap) * float(np.exp(-d_in / cfg.temperature))


def pair_loss_relaxed(x_i, x_j, h_i, h_j, cfg: LossConfig) -> float:
    """Loss of one pair with relaxed (tanh) outputs in place of codes."""
    h_i = np.asarray(h_i, dtype=np.float64)
    h_j = np.asarray(h_j, dtype=np.float64)
    if h_i.shape != h_j.shape or h_i.ndim != 1:
        raise ShapeError(f"output vectors disagree: {h_i.shape} vs {h_j.shape}")
    d_in = _input_distance(x_i, x_j)
    gap = cfg.distance_scale * d_in - float(np.abs(h_i - h_j).sum())
    return abs(gap) * float(np.exp(-d_in / cfg.temperature))


def pair_loss_grad(x_i, x_j, h_i, h_j, cfg: LossConfig):
    """Analytic subgradient of the relaxed pair loss w.r.t. h_i and h_j.

    With gap = scale*d_in - ||h_i - h_j||_1 and weight w = exp(-d_in/temp):

        dL/dh_i = -w * sign(gap) * sign(h_i - h_j)   (componentwise)
        dL/dh_j = -dL/dh_i

    sign(0) is taken as 0 both for the gap and for zero components of
    h_i - h_j, so the subgradient is deterministic and bounded.
    """
    h_i = np.asarray(h_i, dtype=np.float64)
    h_j = np.asarray(h_j, dtype=np.float64)
    if h_i.shape != h_j.shape or h_i.ndim != 1:
        raise ShapeError(f"output vectors disagree: {h_i.shape} vs {h_j.shape}")
    d_in = _input_distance(x_i, x_j)
    diff = h_i - h_j
    gap = cfg.distance_scale * d_in - float(np.abs(diff).sum())
    w = np.exp(-d_in / cfg.temperature)
    g_i = -w * np.sign(gap) * np.sign(diff)
    return g_i, -g_i


# --- the cut objective and its exhaustive minimizer ---

def ncut_value(graph, labels, k: int) -> float:
    """Volume-normalized Ncut (Shi & Malik, 2000): the sum over parts of
    cut(part) / vol(part).

    ``vol(part)`` sums the weighted degrees of the part's vertices; this is
    the objective ``spectral_cluster`` relaxes. A part of zero volume has no
    cut either and adds 0. Every label in [0, k) must be present.
    """
    w = _adjacency(graph)
    labels = np.asarray(labels)
    if labels.shape != (w.shape[0],):
        raise ShapeError("labels must assign every vertex")
    if labels.min() < 0 or labels.max() >= k:
        raise InvalidPartitionError(f"labels outside [0, {k})")
    deg = w.sum(axis=1)
    total = 0.0
    for c in range(k):
        mask = labels == c
        if not mask.any():
            raise InvalidPartitionError(f"cluster {c} is empty")
        vol = deg[mask].sum()
        if vol > 0:
            total += w[mask][:, ~mask].sum() / vol
    return total


def dense_spectral_labels(graph, k: int, seed) -> np.ndarray:
    """The spectral cut with all eigenvectors from a dense ``eigh``.

    The reference for the iterative eigensolver: the same row-normalized
    embedding and seeded k-means, from the full eigendecomposition of the
    normalized Laplacian.
    """
    w = _adjacency(graph)
    deg = w.sum(axis=1)
    _, vecs = np.linalg.eigh(normalized_laplacian(w))
    emb = vecs[:, :k]
    norms = np.linalg.norm(emb, axis=1)
    emb = emb / np.where(norms > 0, norms, 1.0)[:, None]
    labels = np.asarray(kmeans(emb, k, seed)[0], dtype=np.int64)
    labels[deg == 0] = 0
    return labels


def plusplus_init_rows(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ starts from the rows of ``points``, each distance a row sum.

    The reference for ``kmeans._plusplus_init``, which takes the same draws
    from the points' (d, n) columns.
    """
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


def direct_lloyd(points: np.ndarray, centers: np.ndarray, columns: np.ndarray, norm_bound: float):
    """Lloyd iterations from every point-centre distance ||p - c||**2 itself.

    The reference for ``kmeans._lloyd``, which takes its assignments from one
    matrix product: the same steps, the same empty-cluster re-seeding and the
    same argmin ties, over an (n, k, d) broadcast, and always a closing
    assignment. It takes ``_lloyd``'s arguments and reads neither the points'
    columns nor their norm bound. Updates ``centers`` in place and returns
    (labels, inertia).
    """
    labels = None
    for _ in range(MAX_ITER):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        for c in range(centers.shape[0]):
            mask = new_labels == c
            if mask.any():
                centers[c] = points[mask].mean(axis=0)
            else:
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


def _fwht_reference(v: np.ndarray, stages) -> np.ndarray:
    """The Walsh-Hadamard transform with a new array at every stage."""
    stride = 1
    for h in stages:
        radix = h.shape[0]
        if stride == 1:
            v = v.reshape(-1, radix) @ h
        else:
            v = np.matmul(h, v.reshape(-1, radix, stride))
        stride *= radix
    return v.reshape(-1)


def transform_product_reference(graph):
    """X -> W @ X through the code cube, every cube and stage a new array.

    The reference for ``spectral._transform_product``: the same scatter,
    spectrum and gather, and transforms of one matmul per stage, where the
    product reuses three cube buffers and splits each stage into a batch of
    smaller matmuls over the same +-1 products, so the two agree bit for bit.
    """
    length = graph.length
    size = 1 << length
    stages = [_hadamard(4)] * (length // 4) + ([_hadamard(length % 4)] if length % 4 else [])
    index = (graph.codes[:, 0] >> (64 - length)).astype(np.intp)
    spectrum = _fwht_reference(1.0 / graph.divisors[np.bitwise_count(np.arange(size))], stages)
    degrees = graph.degrees

    def product(x):
        y = degrees[:, None] * x
        out = np.empty_like(y)
        for j in range(y.shape[1]):
            cube = np.zeros(size)
            cube[index] = y[:, j]
            cube = _fwht_reference(cube, stages)
            cube *= spectrum
            out[:, j] = _fwht_reference(cube, stages)[index]
        out *= (degrees / size)[:, None]
        return out

    return product


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
    """Exhaustive minimizer of ``ncut_value``; small graphs only.

    Returns the lexicographically smallest label vector among minimizers.
    """
    w = _adjacency(graph)
    n = w.shape[0]
    if n > BRUTE_FORCE_MAX_VERTICES:
        raise OracleSizeError(f"{n} vertices exceeds the enumeration bound")
    if k < 1 or k > n:
        raise InvalidSpecError(f"k={k} incompatible with {n} vertices")
    best, best_value = None, np.inf
    for labels in _growth_strings(n, k):
        value = ncut_value(w, labels, k)
        if value < best_value - 1e-15:
            best, best_value = labels, value
    return best


# --- gradients ---


def finite_difference(f, x0, step=1e-5):
    """Central-difference gradient of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        up = x0.copy()
        dn = x0.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (f(up) - f(dn)) / (2.0 * step)
    return grad


def batch_objective(params: NetworkParams, x, cfg: LossConfig):
    """The scalar training objective as a function of the parameter vector."""

    def f(values):
        p = NetworkParams(layers=params.layers, values=np.asarray(values, dtype=np.float64))
        h, _ = forward(p, x)
        loss, _ = batch_loss(x, h, cfg)
        return loss

    return f


def pre_activations(params: NetworkParams, x) -> list:
    """Every layer's pre-activation ``a_prev @ W + b``, read off the flat vector."""
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    zs, off = [], 0
    for layer in params.layers:
        n_w = layer.input_dim * layer.output_dim
        w = params.values[off : off + n_w].reshape(layer.input_dim, layer.output_dim)
        b = params.values[off + n_w : off + n_w + layer.output_dim]
        off += n_w + layer.output_dim
        z = a @ w + b
        zs.append(z)
        a = np.maximum(z, 0.0) if layer.activation == "relu" else np.tanh(z)
    return zs


def activations(params: NetworkParams, x) -> list:
    """Every layer's activation, each a new array: ``max(z, 0)`` or ``tanh(z)``
    of ``z = a_prev @ W + b``. The reference for ``forward``, which computes
    them in place."""
    return [
        np.maximum(z, 0.0) if layer.activation == "relu" else np.tanh(z)
        for z, layer in zip(pre_activations(params, x), params.layers)
    ]


# --- the site step and the merge as plain array expressions ---

def batch_loss_reference(batch_x, batch_h, cfg: LossConfig):
    """``loss.batch_loss`` with the gradient scattered by np.add.at: each
    pair's term added to its i row, then subtracted from its j row."""
    batch_x = np.atleast_2d(np.asarray(batch_x, dtype=np.float64))
    batch_h = np.atleast_2d(np.asarray(batch_h, dtype=np.float64))
    ii, jj = np.triu_indices(batch_x.shape[0], k=1)
    d_in = np.linalg.norm(batch_x[ii] - batch_x[jj], axis=1)
    diff = batch_h[ii] - batch_h[jj]
    gap = cfg.distance_scale * d_in - np.abs(diff).sum(axis=1)
    w = np.exp(-d_in / cfg.temperature)
    loss = float(np.mean(np.abs(gap) * w))
    per_pair = (-(w * np.sign(gap))[:, None] * np.sign(diff)) / ii.size
    grads = np.zeros_like(batch_h)
    np.add.at(grads, ii, per_pair)
    np.add.at(grads, jj, -per_pair)
    return loss, grads


def backward_reference(trace, grad_h) -> np.ndarray:
    """``network.backward`` with each layer's (dW, db) built apart and the
    flat vector joined from them at the end."""
    grads = [None] * len(trace.layers)
    g = np.asarray(grad_h, dtype=np.float64)
    for i in range(len(trace.layers) - 1, -1, -1):
        a = trace.acts[i]
        dz = g * (a > 0.0) if trace.layers[i].activation == "relu" else g * (1.0 - a * a)
        a_prev = trace.inputs if i == 0 else trace.acts[i - 1]
        grads[i] = (a_prev.T @ dz, dz.sum(axis=0))
        if i > 0:
            g = dz @ trace.weights[i].T
    return np.concatenate([np.concatenate([dw.ravel(), db]) for dw, db in grads])


def build_buckets_reference(params: NetworkParams, x) -> BucketIndex:
    """``sampling.build_buckets`` in plain Python: the distinct packed codes
    by ``sorted(set(...))`` of their bytes, each bucket's samples in index
    order, and each code's words read from its bytes with ``int.from_bytes``."""
    h, _ = forward(params, np.atleast_2d(np.asarray(x, dtype=np.float64)))
    packed = pack_bits_batch(np.where(h >= 0.0, 1, -1))
    keys = sorted(set(packed))
    members = {key: [] for key in keys}
    for i, key in enumerate(packed):
        members[key].append(i)
    width = -(-len(keys[0]) // 8)
    padded = [key.ljust(8 * width, b"\0") for key in keys]
    words = [[int.from_bytes(p[8 * j : 8 * j + 8], "big") for j in range(width)] for p in padded]
    return BucketIndex(
        codes=np.array(words, dtype=np.uint64),
        members=tuple(np.array(members[key], dtype=np.int64) for key in keys),
    )


def select_batch_reference(buckets: BucketIndex, batch_size: int, seed) -> np.ndarray:
    """``sampling.select_batch`` with a Python list per bucket and every
    distance row counted again at every pick."""
    counts = buckets.sizes()
    n_samples = int(counts.sum())
    rng = np.random.default_rng(seed)
    remaining = [list(m) for m in buckets.members]
    sums = np.zeros(len(remaining), dtype=np.int64)

    def draw(bucket, offset=None):
        pool = remaining[bucket]
        j = int(rng.integers(len(pool))) if offset is None else offset
        idx = pool[j]
        pool[j] = pool[-1]
        pool.pop()
        counts[bucket] -= 1
        sums[:] += np.bitwise_count(buckets.codes ^ buckets.codes[bucket]).sum(axis=1, dtype=np.int64)
        return idx

    pos = int(rng.integers(n_samples))
    cum = np.cumsum(counts)
    b0 = int(np.searchsorted(cum, pos, side="right"))
    picked = [draw(b0, pos - (cum[b0 - 1] if b0 else 0))]
    while len(picked) < min(batch_size, n_samples):
        picked.append(draw(int(np.argmax(np.where(counts > 0, sums, -1)))))
    return np.array(picked)


def merge_reference(params: NetworkParams, grads, learning_rate: float) -> np.ndarray:
    """``training.global_merge``'s new values as separate array expressions:
    each gradient rounded to float32 and back, summed in site order, then
    ``values - lr * (total / M)`` rounded to float32."""
    total = np.zeros(params.values.size)
    for g in grads:
        total += np.asarray(g, dtype=np.float64).astype(np.float32).astype(np.float64)
    new_values = params.values - learning_rate * (total / len(grads))
    return new_values.astype(np.float32).astype(np.float64)


def kink_margin(params: NetworkParams, x, cfg: LossConfig) -> float:
    """Distance to the nearest nondifferentiable point of the objective.

    Covers the |.| kink of the pair loss, the componentwise kinks of the
    L1 distance between relaxed outputs, and ReLU corners. Finite
    differences are only trusted when this margin is well above the step.
    """
    h, _ = forward(params, x)
    margins = []
    for z, layer in zip(pre_activations(params, x), params.layers):
        if layer.activation == "relu":
            margins.append(np.abs(z).min())
    n = h.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            d2 = np.linalg.norm(np.asarray(x[i], dtype=float) - np.asarray(x[j], dtype=float))
            diff = h[i] - h[j]
            margins.append(np.abs(cfg.distance_scale * d2 - np.abs(diff).sum()))
            margins.append(np.abs(diff).min())
    return float(min(margins)) if margins else np.inf


def planted_two_cluster(rng, n_vertices=None):
    """Adjacency with two heavy blocks and weak cross edges (ratio >= 50)."""
    if n_vertices is None:
        n_vertices = int(rng.integers(4, 11))
    n_a = int(rng.integers(2, n_vertices - 1))
    labels = np.array([0] * n_a + [1] * (n_vertices - n_a))
    w = np.zeros((n_vertices, n_vertices))
    for i in range(n_vertices):
        for j in range(i + 1, n_vertices):
            if labels[i] == labels[j]:
                w[i, j] = rng.uniform(50.0, 100.0)
            else:
                w[i, j] = rng.uniform(0.5, 1.0)
            w[j, i] = w[i, j]
    return w, labels


def planted_codebook(rng, k, per_group, min_distance=9):
    """A global codebook of 16-bit codes planted around k centres.

    The centres lie pairwise at least ``min_distance`` apart; each group
    takes the ``per_group`` codes nearest its centre (ties broken at random),
    and a code at hamming radius r gets degree 1 + Poisson(64 / 2**r).
    Returns the codebook, in packed-code order, and each entry's group.
    """
    length = 16
    everything = np.arange(2 ** length)

    def distance(centre):
        return ((np.bitwise_xor(everything, centre)[:, None] >> np.arange(length)) & 1).sum(axis=1)

    allowed = np.ones(everything.size, dtype=bool)
    centres = []
    while len(centres) < k:
        centres.append(int(rng.choice(everything[allowed])))
        allowed &= distance(centres[-1]) >= min_distance
    codes, groups, radius = [], [], []
    for g, centre in enumerate(centres):
        dist = distance(centre)
        pick = np.lexsort((rng.random(everything.size), dist))[:per_group]
        codes.extend(everything[pick].tolist())
        groups.extend([g] * per_group)
        radius.extend(dist[pick].tolist())
    if 2 * max(radius) >= min_distance:
        raise ValueError(f"{per_group} codes per group reach past the centre spacing")
    degrees = 1 + rng.poisson(64.0 / 2.0 ** np.array(radius))
    order = np.argsort(codes)
    book = codebook_of([codes[i].to_bytes(2, "big") for i in order], degrees[order], length)
    return book, np.array(groups)[order]


def disconnected_components(rng, k, total):
    """Block-diagonal adjacency with k components and no cross edges."""
    sizes = np.full(k, total // k)
    sizes[: total % k] += 1
    labels = np.repeat(np.arange(k), sizes)
    w = np.zeros((total, total))
    for i in range(total):
        for j in range(i + 1, total):
            if labels[i] == labels[j]:
                w[i, j] = w[j, i] = rng.uniform(1.0, 5.0)
    return w, labels


def labels_match_up_to_permutation(a, b) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    mapping = {}
    used = set()
    for x, y in zip(a, b):
        if x in mapping:
            if mapping[x] != y:
                return False
        else:
            if y in used:
                return False
            mapping[x] = y
            used.add(y)
    return True


def hamming_sum(code_bits, prior_bits):
    """Summed hamming distance from one code to every prior pick."""
    total = 0
    for p in prior_bits:
        total += int(np.sum(np.asarray(code_bits) != np.asarray(p)))
    return total
