"""Independent verification helpers shared by the test modules.

Everything in here recomputes quantities by a different route than the
library (finite differences, exhaustive enumeration, brute-force
recounting, one pair or one code at a time) so agreement is meaningful.
No run of the library needs any of it.
"""

import numpy as np

from hashclust.codebook import Codebook, CodebookEntry
from hashclust.errors import HashClustError, InvalidKError, ShapeError
from hashclust.kmeans import MAX_ITER, kmeans
from hashclust.loss import LossConfig, batch_loss
from hashclust.network import HashCode, NetworkParams, forward
from hashclust.spectral import _adjacency, normalized_laplacian

BRUTE_FORCE_MAX_VERTICES = 12


class InvalidPartitionError(HashClustError):
    """A partition has an empty part or out-of-range labels."""


class OracleSizeError(HashClustError):
    """Graph too large for exhaustive enumeration."""


# --- codes, one at a time ---

def binarize(h) -> HashCode:
    """Threshold one relaxed output vector to a code; sign(0) maps to +1."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1:
        raise ShapeError("binarize takes a single vector; see binarize_batch")
    return HashCode.from_bits(np.where(h >= 0.0, 1, -1).astype(np.int8))


def pack_bits_batch(bits: np.ndarray) -> list[bytes]:
    """Packed byte form for each row of a (B, L) +-1 array."""
    packed = np.packbits((bits > 0).astype(np.uint8), axis=1)
    return [row.tobytes() for row in packed]


def word_codes(words: np.ndarray, length: int) -> list[HashCode]:
    """The code of each ``network.code_words`` row, read one word at a time."""
    n_bytes = (length + 7) // 8
    return [
        HashCode(packed=b"".join(int(w).to_bytes(8, "big") for w in row)[:n_bytes], length=length)
        for row in words
    ]


def hamming(a: HashCode, b: HashCode) -> int:
    """Number of differing positions; L1 distance of +-1 codes is twice this."""
    if a.length != b.length:
        raise ShapeError(f"codes have lengths {a.length} and {b.length}")
    return int((a.bits != b.bits).sum())


# --- the pair loss, one pair at a time ---

def _input_distance(x_i, x_j) -> float:
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    if x_i.shape != x_j.shape or x_i.ndim != 1:
        raise ShapeError(f"input vectors disagree: {x_i.shape} vs {x_j.shape}")
    return float(np.linalg.norm(x_i - x_j))


def pair_loss_discrete(x_i, x_j, code_i: HashCode, code_j: HashCode, cfg: LossConfig) -> float:
    """Loss of one pair with hard +-1 codes."""
    if code_i.length != code_j.length:
        raise ShapeError("codes have different lengths")
    d_in = _input_distance(x_i, x_j)
    d_code = float(np.abs(code_i.bits - code_j.bits).sum())
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


def direct_lloyd(points: np.ndarray, centers: np.ndarray):
    """Lloyd iterations from every point-centre distance ||p - c||**2 itself.

    The reference for ``kmeans._lloyd``, which takes its assignments from one
    matrix product: the same steps, the same empty-cluster re-seeding and the
    same argmin ties, over an (n, k, d) broadcast. Updates ``centers`` in
    place and returns (labels, inertia).
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
        raise InvalidKError(f"k={k} incompatible with {n} vertices")
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
    entries = tuple(
        CodebookEntry(HashCode(packed=codes[i].to_bytes(2, "big"), length=length), int(degrees[i]))
        for i in order
    )
    return Codebook(entries=entries, origin="global"), np.array(groups)[order]


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
