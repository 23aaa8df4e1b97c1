import re

import numpy as np
import pytest

from hashclust import codebook, network
from hashclust.codebook import (
    Codebook,
    decode_codes_payload,
    encode_codes_payload,
    encode_shard,
    merge_codebooks,
)
from hashclust.errors import InconsistentStateError, InvalidSpecError, ShapeError
from hashclust import kmeans as kmeans_module
from hashclust.kmeans import kmeans
from hashclust.network import init_network, mlp_spec
from hashclust import spectral
from hashclust.spectral import (
    DENSE_SOLVER_MAX_VERTICES,
    build_graph,
    normalized_laplacian,
    propagate_labels,
    spectral_cluster,
)

import oracles
from conftest import BAD_COUNTS, BAD_SEEDS
from oracles import (
    InvalidPartitionError,
    OracleSizeError,
    brute_force_ncut,
    codebook_of,
    dense_spectral_labels,
    direct_lloyd,
    disconnected_components,
    hamming,
    labels_match_up_to_permutation,
    ncut_value,
    packed,
    planted_codebook,
    planted_two_cluster,
    plusplus_init_rows,
    sorted_book as book,
    transform_product_reference,
    unpacked,
    word_bytes,
)


def code(*bits):
    return np.array(bits, dtype=np.int8)


def code_bits(b):
    """The +-1 bits of each code of a book, read from its packed bytes."""
    return [unpacked(c, b.code_length) for c in word_bytes(b.codes, b.code_length)]


def reordered(b, rows):
    """The book ``b`` with its entries taken in the order (or subset) ``rows``."""
    return Codebook.from_arrays(b.codes[rows], b.degrees[rows], b.code_length, b.origin)


# --- hamming ---

def test_hamming_identical():
    c = code(1, -1, 1)
    assert hamming(c, c) == 0


def test_hamming_antipodal():
    a = code(1, -1, 1, 1)
    b = code(-1, 1, -1, -1)
    assert hamming(a, b) == 4


def test_hamming_hand_example():
    assert hamming(code(1, -1, 1, 1), code(1, 1, 1, -1)) == 2


def test_hamming_length_mismatch():
    with pytest.raises(ShapeError):
        hamming(code(1, 1), code(1, 1, 1))


# --- build_graph ---

def test_graph_two_antipodal_codes():
    # degrees 3 and 5 at hamming 4: single off-diagonal weight 15/4, self
    # weights f0 * d**2 = 4 * 9 and 4 * 25
    w = spectral._dense_weights(build_graph(book([(code(1, 1, 1, 1), 3), (code(-1, -1, -1, -1), 5)])))
    assert w.shape == (2, 2)
    assert sorted(np.diag(w)) == [36.0, 100.0]
    assert w[0, 1] == w[1, 0] == 3.75


def test_graph_single_vertex():
    w = spectral._dense_weights(build_graph(book([(code(1, -1), 9)])))
    assert np.array_equal(w, [[4.0 * 81]])


def test_graph_degree_scaling_is_quadratic():
    entries = [(code(1, 1, -1), 2), (code(1, -1, 1), 3), (code(-1, 1, 1), 4)]
    w1 = spectral._dense_weights(build_graph(book(entries)))
    w2 = spectral._dense_weights(build_graph(book([(c, 5 * d) for c, d in entries])))
    assert np.allclose(w2, 25.0 * w1)


def test_graph_rejects_duplicate_codes():
    with pytest.raises(InconsistentStateError, match="^duplicate codes in codebook$"):
        build_graph(codebook_of([packed(code(1, 1)), packed(code(1, 1))], [1, 2], 2))


def test_graph_is_its_codebook():
    b = book([(code(1, 1, -1), 2), (code(1, -1, 1), 3)])
    assert build_graph(b) is b


def test_transform_refuses_a_decoded_book_with_a_repeated_code(monkeypatch):
    # a decoded book keeps its payload's repeats; build_graph refuses it, and
    # so does the cut on the transform path, which gives each code one cube entry
    codes = [packed(code(1, 1, -1)), packed(code(-1, 1, 1)), packed(code(1, 1, -1))]
    decoded = decode_codes_payload(encode_codes_payload(codebook_of(codes, [2, 3, 4], 3)), 3, origin="site0")
    assert len(decoded) == 3
    monkeypatch.setattr(spectral, "_matrix_free", lambda book: True)
    with pytest.raises(InconsistentStateError, match="^duplicate codes in codebook$"):
        spectral_cluster(decoded, 2, seed=0)


def test_dense_cut_refuses_a_decoded_book_with_a_repeated_code():
    # below the transform threshold the cut builds the dense weights, which
    # would give the repeated code two vertices; it is refused as build_graph refuses it
    zero = packed(code(-1, -1, -1))
    codes = [zero, packed(code(1, 1, 1)), zero, packed(code(1, -1, 1))]
    decoded = decode_codes_payload(encode_codes_payload(codebook_of(codes, [2, 3, 4, 5], 3)), 3, origin="site0")
    assert len(decoded) == 4 and (decoded.codes[0] == decoded.codes[2]).all()
    assert not spectral._matrix_free(decoded)
    with pytest.raises(InconsistentStateError, match="^duplicate codes in codebook$"):
        spectral_cluster(decoded, 2, seed=0)
    with pytest.raises(InconsistentStateError, match="^duplicate codes in codebook$"):
        normalized_laplacian(decoded)


def test_graph_rejects_codebook_above_dense_bound():
    # 32-bit codes are past the transform's reach, so the cut needs the n x n weights
    length = 32
    assert length > spectral.TRANSFORM_MAX_CODE_LENGTH
    n = DENSE_SOLVER_MAX_VERTICES + 1
    graph = build_graph(codebook_of([i.to_bytes(4, "big") for i in range(n)], [1] * n, length))
    assert not spectral._matrix_free(graph)
    bound = f"{n} codes exceed the dense solver bound of {DENSE_SOLVER_MAX_VERTICES} vertices"
    with pytest.raises(ShapeError, match=bound):
        spectral._dense_weights(graph)
    with pytest.raises(ShapeError, match=bound):
        spectral_cluster(graph, 2, seed=0)


def test_graph_matches_pairwise_formula():
    rng = np.random.default_rng(0)
    params = init_network(mlp_spec(3, (4,), 4), 0)
    cb, _ = encode_shard(params, rng.normal(size=(30, 3)), origin="site")
    merged = merge_codebooks([cb])
    w = spectral._dense_weights(build_graph(merged))
    n = len(merged)
    bits, degrees = code_bits(merged), merged.degrees.tolist()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            h = hamming(bits[i], bits[j])
            expect = degrees[i] * degrees[j] / h
            assert w[i, j] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("length", [16, 13, 70])
def test_graph_weights_equal_hamming_weights_exactly(length):
    rng = np.random.default_rng(length)
    bits = np.unique(rng.choice([-1, 1], size=(60, length)), axis=0)
    degrees = rng.integers(1, 10 ** 6, size=len(bits))
    b = book([(row, int(d)) for row, d in zip(bits, degrees)])
    w = spectral._dense_weights(build_graph(b))
    book_bits, book_degrees = code_bits(b), b.degrees.tolist()
    for i, (bi, di) in enumerate(zip(book_bits, book_degrees)):
        for j, (bj, dj) in enumerate(zip(book_bits, book_degrees)):
            expect = 4.0 * di * di if i == j else di * dj / hamming(bi, bj)
            assert w[i, j] == expect


# --- ncut_value ---

def test_ncut_disconnected_split_is_zero():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 2.0
    w[2, 3] = w[3, 2] = 5.0
    assert ncut_value(w, np.array([0, 0, 1, 1]), 2) == 0.0


def test_ncut_single_cluster_zero():
    w = np.ones((3, 3)) - np.eye(3)
    assert ncut_value(w, np.zeros(3, dtype=int), 1) == 0.0


def test_ncut_path_hand_example():
    # path v1 - v2 - v3, unit weights, split {v1} | {v2, v3}
    w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    val = ncut_value(w, np.array([0, 1, 1]), 2)
    assert val == pytest.approx(4.0 / 3.0)  # cut 1 over vol 1, plus cut 1 over vol 2 + 1


def test_ncut_empty_part_rejected():
    w = np.ones((3, 3)) - np.eye(3)
    with pytest.raises(InvalidPartitionError):
        ncut_value(w, np.array([0, 0, 0]), 2)


# --- brute force ---

def test_brute_force_two_cliques_weak_bridge():
    w = np.zeros((6, 6))
    for i in range(3):
        for j in range(i + 1, 3):
            w[i, j] = w[j, i] = 10.0
            w[i + 3, j + 3] = w[j + 3, i + 3] = 10.0
    w[2, 3] = w[3, 2] = 0.1
    labels = brute_force_ncut(w, 2)
    assert labels_match_up_to_permutation(labels, [0, 0, 0, 1, 1, 1])


def test_brute_force_disconnected_components_zero():
    rng = np.random.default_rng(1)
    w, truth = disconnected_components(rng, 3, 9)
    labels = brute_force_ncut(w, 3)
    assert labels_match_up_to_permutation(labels, truth)
    assert ncut_value(w, labels, 3) == 0.0


def test_brute_force_complete_graph_canonical():
    # K4 with unit weights, every degree 3: a 2 | 2 split cuts 4 edges of
    # volume 6 on each side, 4/6 + 4/6; a 3 | 1 split cuts 3, 3/9 + 3/3. All
    # splits tie at 4/3, and the lexicographically smallest labeling wins.
    w = np.ones((4, 4)) - np.eye(4)
    assert ncut_value(w, np.array([0, 0, 1, 1]), 2) == pytest.approx(4.0 / 3.0)
    assert ncut_value(w, np.array([0, 0, 0, 1]), 2) == pytest.approx(4.0 / 3.0)
    labels = brute_force_ncut(w, 2)
    assert labels.tolist() == [0, 0, 0, 1]


def test_brute_force_is_global_minimum():
    rng = np.random.default_rng(2)
    w = rng.uniform(0.1, 1.0, size=(6, 6))
    w = np.triu(w, 1)
    w = w + w.T
    best = brute_force_ncut(w, 2)
    best_val = ncut_value(w, best, 2)
    # compare with random surjective labelings
    for _ in range(200):
        labels = rng.integers(0, 2, size=6)
        if len(set(labels.tolist())) < 2:
            continue
        assert best_val <= ncut_value(w, labels, 2) + 1e-12


def test_brute_force_size_cap():
    with pytest.raises(OracleSizeError):
        brute_force_ncut(np.zeros((13, 13)), 2)


# --- laplacian / spectral ---

def test_laplacian_eigen_sanity():
    rng = np.random.default_rng(3)
    w, _ = planted_two_cluster(rng, 8)
    lap = normalized_laplacian(w)
    vals, vecs = np.linalg.eigh(lap)
    assert np.all(vals >= -1e-10)
    assert np.all(vals <= 2.0 + 1e-10)
    for i in range(len(vals)):
        v = vecs[:, i]
        assert np.linalg.norm(lap @ v - vals[i] * v) <= 1e-8 * max(np.linalg.norm(v), 1e-12)


def test_spectral_recovers_disconnected_components():
    rng = np.random.default_rng(4)
    w, truth = disconnected_components(rng, 3, 10)
    labels = spectral_cluster(w, 3, seed=0)
    assert labels_match_up_to_permutation(labels, truth)
    assert ncut_value(w, labels, 3) == 0.0


def test_spectral_matches_bruteforce_on_cliques():
    w = np.zeros((8, 8))
    for i in range(4):
        for j in range(i + 1, 4):
            w[i, j] = w[j, i] = 10.0
            w[i + 4, j + 4] = w[j + 4, i + 4] = 10.0
    w[3, 4] = w[4, 3] = 0.1
    spectral = spectral_cluster(w, 2, seed=0)
    brute = brute_force_ncut(w, 2)
    assert labels_match_up_to_permutation(spectral, brute)


def _iterative_embedding(graph, k):
    _, product, deg = spectral._operator(graph)
    return spectral._lobpcg(product, spectral._inv_sqrt(deg), k)


def _min_principal_cosine(a, b):
    return np.linalg.svd(np.linalg.qr(a)[0].T @ np.linalg.qr(b)[0], compute_uv=False).min()


@pytest.mark.parametrize("matrix_free", [False, True], ids=["dense_product", "transform"])
def test_iterative_embedding_spans_dense_subspace_on_planted_graph(matrix_free, monkeypatch):
    planted, _ = planted_codebook(np.random.default_rng(8), 4, 60)
    # 240 codes at L=16 take the dense product unless the transform is forced
    monkeypatch.setattr(spectral, "_matrix_free", lambda book: matrix_free)
    graph = build_graph(planted)
    w = spectral._dense_weights(graph)
    assert len(planted) >= 5 * 4
    emb = _iterative_embedding(graph, 4)
    assert emb is not None
    dense = np.linalg.eigh(normalized_laplacian(w))[1][:, :4]
    assert _min_principal_cosine(emb, dense) >= 1.0 - 1e-9
    for seed in (0, 1, 2):
        assert np.array_equal(spectral_cluster(graph, 4, seed), dense_spectral_labels(w, 4, seed))


def test_iterative_path_recovers_disconnected_components(monkeypatch):
    w, truth = disconnected_components(np.random.default_rng(9), 4, 40)

    def no_dense(graph):
        raise AssertionError("the dense path ran")

    monkeypatch.setattr(spectral, "normalized_laplacian", no_dense)
    labels = spectral_cluster(w, 4, seed=0)
    assert labels_match_up_to_permutation(labels, truth)


def test_iteration_cap_falls_back_to_dense(monkeypatch):
    planted, _ = planted_codebook(np.random.default_rng(10), 4, 60)
    w = build_graph(planted)
    monkeypatch.setattr(spectral, "LOBPCG_MAX_ITER", 1)
    assert _iterative_embedding(w, 4) is None
    assert np.array_equal(spectral_cluster(w, 4, seed=3), dense_spectral_labels(w, 4, seed=3))


def test_iterative_embedding_matches_scipy_eigsh():
    linalg = pytest.importorskip("scipy.sparse.linalg")
    planted, _ = planted_codebook(np.random.default_rng(11), 3, 80)
    w = spectral._dense_weights(build_graph(planted))
    inv_sqrt = 1.0 / np.sqrt(w.sum(axis=1))
    m = inv_sqrt[:, None] * w * inv_sqrt[None, :]
    vals, vecs = linalg.eigsh(m, k=3, which="LA", tol=1e-12)
    emb = _iterative_embedding(w, 3)
    assert _min_principal_cosine(emb, vecs) >= 1.0 - 1e-9
    ritz = np.einsum("ij,ij->j", emb, m @ emb)
    assert np.allclose(ritz, np.sort(vals)[::-1], rtol=0.0, atol=1e-12)


def _known_top(deg):
    """sqrt(deg) / ||sqrt(deg)||, read off D^{-1/2} as _lobpcg reads it."""
    inv_sqrt = spectral._inv_sqrt(deg)
    top = np.zeros_like(inv_sqrt)
    top[inv_sqrt > 0] = 1.0 / inv_sqrt[inv_sqrt > 0]
    return top / np.linalg.norm(top)


@pytest.mark.parametrize("graph_kind", ["book", "dense"])
def test_one_cluster_puts_every_vertex_in_cluster_0_without_a_solver(graph_kind, monkeypatch):
    if graph_kind == "book":
        graph = build_graph(planted_codebook(np.random.default_rng(13), 2, 60)[0])
    else:
        graph, _ = planted_two_cluster(np.random.default_rng(13), 9)

    def refuse(name):
        def ran(*args, **kwargs):
            raise AssertionError(f"{name} ran")

        return ran

    monkeypatch.setattr(spectral, "_lobpcg", refuse("_lobpcg"))
    monkeypatch.setattr(np.linalg, "eigh", refuse("eigh"))
    monkeypatch.setattr(spectral, "kmeans", refuse("kmeans"))
    for seed in (0, 1):
        labels = spectral_cluster(graph, 1, seed)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, np.zeros(len(graph), dtype=np.int64))


def _graph_with_isolated_vertices():
    """A planted 3-component graph of 40 vertices, 5 of them with no edges."""
    w, truth = disconnected_components(np.random.default_rng(14), 3, 40)
    isolated = np.array([0, 9, 17, 30, 39])
    w[isolated, :] = 0.0
    w[:, isolated] = 0.0
    return w, truth, isolated


@pytest.mark.parametrize("graph_kind", ["transform", "dense_product", "isolated_vertices"])
def test_embedding_column_0_is_the_known_top_eigenvector(graph_kind, monkeypatch):
    if graph_kind == "isolated_vertices":
        graph, _, isolated = _graph_with_isolated_vertices()
        k = 3
    else:
        monkeypatch.setattr(spectral, "_matrix_free", lambda book: graph_kind == "transform")
        graph, k = build_graph(planted_codebook(np.random.default_rng(15), 4, 60)[0]), 4
    _, _, deg = spectral._operator(graph)
    assert deg.size >= 5 * k
    emb = _iterative_embedding(graph, k)
    assert emb.shape == (deg.size, k)
    assert np.array_equal(emb[:, 0], _known_top(deg))
    # the other columns are orthonormal and orthogonal to it
    assert np.allclose(emb.T @ emb, np.eye(k), atol=1e-12)
    if graph_kind == "isolated_vertices":
        assert np.all(emb[isolated, 0] == 0.0)
        labels = spectral_cluster(graph, k, seed=0)
        assert np.all(labels[isolated] == 0)


def test_lobpcg_applies_w_to_at_most_2k_minus_2_columns(monkeypatch):
    planted, _ = planted_codebook(np.random.default_rng(16), 4, 60)
    monkeypatch.setattr(spectral, "_matrix_free", lambda book: True)
    _, product, deg = spectral._operator(build_graph(planted))
    columns = []

    def counting(x):
        columns.append(x.shape[1])
        return product(x)

    assert spectral._lobpcg(counting, spectral._inv_sqrt(deg), 4) is not None
    assert columns[0] == 3
    assert len(columns) > 2 and max(columns[1:]) <= 2 * 3


def _column_counter(product):
    """``product`` that also appends the column count of every call to a list."""
    columns = []

    def counting(x):
        columns.append(x.shape[1])
        return product(x)

    return counting, columns


def test_lobpcg_applies_w_only_to_the_k_minus_1_new_residual_directions(monkeypatch):
    # the graph of the test above: W @ P comes from the basis, not a product
    planted, _ = planted_codebook(np.random.default_rng(16), 4, 60)
    monkeypatch.setattr(spectral, "_matrix_free", lambda book: True)
    _, product, deg = spectral._operator(build_graph(planted))
    counting, columns = _column_counter(product)
    assert spectral._lobpcg(counting, spectral._inv_sqrt(deg), 4) is not None
    assert len(columns) > 2 and columns == [3] * len(columns)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lobpcg_on_clusterless_codes_is_orthonormal_with_small_fresh_residuals(seed):
    # 1500 random L=12 codes carry no clusters, so the spectrum has no gap at k
    rng = np.random.default_rng(seed)
    codes = rng.choice(2 ** 12, size=1500, replace=False) << 4  # L=12 in two bytes, low bits zero
    entries = [
        (unpacked(int(c).to_bytes(2, "big"), 12), int(d))
        for c, d in zip(codes, rng.integers(1, 50, size=1500))
    ]
    graph = build_graph(book(entries))
    assert spectral._matrix_free(graph)
    _, product, deg = spectral._operator(graph)
    inv_sqrt = spectral._inv_sqrt(deg)
    counting, columns = _column_counter(product)
    emb = spectral._lobpcg(counting, inv_sqrt, 8)
    assert emb is not None
    assert columns == [7] * len(columns)
    assert np.linalg.norm(emb.T @ emb - np.eye(8)) <= 1e-12
    # the residuals of a fresh product, not of the W-images LOBPCG carried along
    m_emb = inv_sqrt[:, None] * product(inv_sqrt[:, None] * emb)
    ritz = np.einsum("ij,ij->j", emb, m_emb)
    assert np.linalg.norm(m_emb - emb * ritz, axis=0).max() <= spectral.LOBPCG_TOLERANCE


def test_orthonormal_complement_of_a_zero_residual_and_one_inside_the_span():
    rng = np.random.default_rng(18)
    n, m = 200, 3
    # [v1, X, P]: 1 + m + m orthonormal columns
    v = np.linalg.qr(rng.standard_normal((n, 1 + 2 * m)))[0]
    r = rng.standard_normal((n, m))
    r[:, 0] = 0.0
    r[:, 2] = v @ rng.standard_normal(1 + 2 * m)
    q = spectral._orthonormal_complement(r, v)
    assert q.shape == (n, m)
    assert np.abs(q.T @ q - np.eye(m)).max() <= 1e-12
    assert np.abs(v.T @ q).max() <= 1e-12
    # the one column outside span(v) is spanned by q
    outside = r[:, 1] - v @ (v.T @ r[:, 1])
    assert np.linalg.norm(outside - q @ (q.T @ outside)) <= 1e-12 * np.linalg.norm(outside)


def _random_graph(length):
    """Up to 300 distinct random L-bit codes with degrees up to 1e6."""
    rng = np.random.default_rng(length)
    n = min(2 ** length, 300)
    n_bytes = (length + 7) // 8
    entries = [
        (unpacked((int(c) << (8 * n_bytes - length)).to_bytes(n_bytes, "big"), length), int(d))
        for c, d in zip(rng.choice(2 ** length, size=n, replace=False), rng.integers(1, 10 ** 6, size=n))
    ]
    return build_graph(book(entries)), rng


def _over_self_divisors(names, cases):
    """Parametrize ``names`` and ``self_divisor``, the kernel's entry at h = 0,
    over ``cases``: each case with inf (W_ii = 0, no self affinity) under its
    plain id, then on the shipped divisor table (W_ii = f0 * d_i**2, f0 =
    ``KERNEL_AT_ZERO``) under the id suffix ``-f0=<f0>``."""
    params = [
        pytest.param(*case, self_divisor, id="-".join(map(str, case)) + suffix)
        for self_divisor, suffix in ((np.inf, ""), (None, f"-f0={spectral.KERNEL_AT_ZERO}"))
        for case in cases
    ]
    return pytest.mark.parametrize(f"{names}, self_divisor", params)


def _set_self_divisor(monkeypatch, self_divisor):
    """Replace the h = 0 entry of the shipped divisor table, keeping h >= 1;
    ``None`` keeps the shipped table whole."""
    if self_divisor is None:
        return
    shipped = spectral._divisors
    monkeypatch.setattr(
        spectral, "_divisors", lambda length: np.concatenate([[self_divisor], shipped(length)[1:]])
    )
    # the transformed kernel is cached per L from the shipped table: bypass
    # the cache, so that it neither serves nor keeps a spectrum of this one
    monkeypatch.setattr(spectral, "_cube_constants", spectral._cube_constants.__wrapped__)


@_over_self_divisors("length", [(1,), (3,), (8,), (13,), (16,), (17,), (22,)])
def test_transform_product_equals_dense_product(length, self_divisor, monkeypatch):
    _set_self_divisor(monkeypatch, self_divisor)
    graph, rng = _random_graph(length)
    x = rng.standard_normal((len(graph), 3))
    expect = spectral._dense_weights(graph) @ x
    err = np.linalg.norm(spectral._transform_product(graph)(x) - expect, axis=0)
    assert np.all(err <= 1e-13 * np.linalg.norm(expect, axis=0))


@_over_self_divisors("length, columns", [(n, c) for n in (1, 4, 5, 13, 16, 17) for c in (1, 3)] + [(22, 1)])
def test_transform_product_is_bitwise_the_allocating_one(length, columns, self_divisor, monkeypatch):
    _set_self_divisor(monkeypatch, self_divisor)
    graph, rng = _random_graph(length)
    product = spectral._transform_product(graph)
    reference = transform_product_reference(graph)
    xs = [rng.standard_normal((len(graph), columns)) for _ in range(2)]
    first = product(xs[0])
    kept = first.copy()
    second = product(xs[1])
    assert np.array_equal(first, kept)  # the later call left the earlier result alone
    for x, got in zip(xs, (first, second)):
        assert np.array_equal(got, reference(x))
    # every array the product keeps between calls, the three cube buffers among them
    held = [cell.cell_contents for cell in product.__closure__ if isinstance(cell.cell_contents, np.ndarray)]
    for got in (first, second):
        assert not any(np.shares_memory(got, a) for a in held)


@_over_self_divisors("length", [(1,), (3,), (8,), (13,), (16,), (17,), (22,)])
def test_transform_degrees_equal_dense_row_sums(length, self_divisor, monkeypatch):
    _set_self_divisor(monkeypatch, self_divisor)
    graph, _ = _random_graph(length)
    expect = spectral._dense_weights(graph).sum(axis=1)
    monkeypatch.setattr(spectral, "_matrix_free", lambda book: True)
    w, _, deg = spectral._operator(graph)
    assert w is None
    assert np.all(np.abs(deg - expect) <= 1e-13 * expect)


def test_cube_constants_are_made_once_per_length_and_read_only():
    first, _ = _random_graph(16)
    second = build_graph(planted_codebook(np.random.default_rng(12), 4, 1000)[0])
    held = [
        dict(zip(p.__code__.co_freevars, (cell.cell_contents for cell in p.__closure__)))
        for p in map(spectral._transform_product, (first, second))
    ]
    assert held[0]["spectrum"] is held[1]["spectrum"]
    assert all(a is b for a, b in zip(held[0]["stages"], held[1]["stages"]))
    for table in (held[0]["spectrum"], *held[0]["stages"]):
        assert not table.flags.writeable


@pytest.mark.parametrize("length", [13, 16])
def test_transform_product_never_writes_its_scatter_cube(length):
    graph, rng = _random_graph(length)
    product = spectral._transform_product(graph)
    reference = transform_product_reference(graph)
    held = dict(zip(product.__code__.co_freevars, (cell.cell_contents for cell in product.__closure__)))
    scatter, index = held["scatter"], held["index"]
    away = np.ones(scatter.size, dtype=bool)
    away[index] = False
    assert away.any()  # 300 codes leave most of the cube empty
    for columns in (3, 1, 3):
        x = rng.standard_normal((len(graph), columns))
        assert np.array_equal(product(x), reference(x))
        assert not scatter[away].any()
        # the last column's scatter, as it was before the transforms read it
        assert np.array_equal(scatter[index], graph.degrees * x[:, -1])


def test_planted_cut_is_bitwise_the_allocating_products(monkeypatch):
    planted, _ = planted_codebook(np.random.default_rng(12), 4, 1000)
    graph = build_graph(planted)
    assert spectral._matrix_free(graph)
    lobpcg = spectral._lobpcg
    embeddings = []

    def recorded(*args):
        embeddings.append(lobpcg(*args))
        return embeddings[-1]

    monkeypatch.setattr(spectral, "_lobpcg", recorded)
    labels = spectral_cluster(graph, 4, seed=0)
    monkeypatch.setattr(spectral, "_transform_product", transform_product_reference)
    reference_labels = spectral_cluster(graph, 4, seed=0)
    assert len(embeddings) == 2 and embeddings[0] is not None
    assert np.array_equal(embeddings[0], embeddings[1])
    assert np.array_equal(labels, reference_labels)


@pytest.mark.parametrize("per_group", [1000, 2100])
def test_large_planted_cut_never_builds_the_dense_weights(per_group, monkeypatch):
    # 4000 codes, then 8400: more than DENSE_SOLVER_MAX_VERTICES
    planted, groups = planted_codebook(np.random.default_rng(12), 4, per_group)
    graph = build_graph(planted)
    assert spectral._matrix_free(graph)

    def no_dense(graph):
        raise AssertionError("the n x n weights were built")

    monkeypatch.setattr(spectral, "_dense_weights", no_dense)
    labels = spectral_cluster(graph, 4, seed=0)
    assert labels_match_up_to_permutation(labels, groups)


def _bad_weights(kind):
    if kind == "all_nan":
        return np.full((6, 6), np.nan)
    w = np.ones((6, 6))
    w[1, 4] = w[4, 1] = {"nan": np.nan, "inf": np.inf, "negative": -0.5}[kind]
    return w


@pytest.mark.parametrize("kind", ["all_nan", "nan", "inf", "negative"])
def test_dense_weights_must_be_finite_and_nonnegative(kind):
    with pytest.raises(ShapeError, match="^adjacency weights must be finite and nonnegative$"):
        spectral_cluster(_bad_weights(kind), 2, seed=0)
    with pytest.raises(ShapeError, match="^adjacency weights must be finite and nonnegative$"):
        normalized_laplacian(_bad_weights(kind))


def test_spectral_k_equals_n():
    w = np.ones((5, 5)) - np.eye(5)
    labels = spectral_cluster(w, 5, seed=0)
    assert sorted(labels.tolist()) == list(range(5))
    # a zero-degree vertex too: k = n gives arange(n) before the degree rule
    w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert spectral_cluster(w, 3, seed=0).tolist() == [0, 1, 2]


def test_spectral_k_too_large():
    with pytest.raises(InvalidSpecError, match="^k=4 incompatible with 3 vertices$"):
        spectral_cluster(np.zeros((3, 3)), 4, seed=0)


def test_spectral_degree_scaling_invariance():
    entries = [(code(1, 1, -1), 2), (code(1, -1, 1), 3), (code(-1, 1, 1), 4), (code(1, 1, 1), 6)]
    a = spectral_cluster(build_graph(book(entries)), 2, seed=1)
    scaled = [(c, 7 * d) for c, d in entries]
    b = spectral_cluster(build_graph(book(scaled)), 2, seed=1)
    assert labels_match_up_to_permutation(a, b)


def test_spectral_deterministic():
    rng = np.random.default_rng(5)
    w, _ = planted_two_cluster(rng, 9)
    a = spectral_cluster(w, 2, seed=7)
    b = spectral_cluster(w, 2, seed=7)
    assert np.array_equal(a, b)


# --- kmeans ---

def test_kmeans_exact_clusters():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    labels, inertia = kmeans(pts, 2, seed=0)
    assert labels_match_up_to_permutation(labels, [0, 0, 1, 1])
    assert inertia == pytest.approx(0.01, rel=1e-9)


def test_kmeans_k_equals_n():
    pts = np.random.default_rng(6).normal(size=(4, 2))
    labels, inertia = kmeans(pts, 4, seed=0)
    assert sorted(labels.tolist()) == [0, 1, 2, 3]
    assert inertia == pytest.approx(0.0, abs=1e-12)


def test_kmeans_deterministic():
    pts = np.random.default_rng(7).normal(size=(30, 3))
    a, ia = kmeans(pts, 4, seed=9)
    b, ib = kmeans(pts, 4, seed=9)
    assert np.array_equal(a, b)
    assert ia == ib


def _kmeans_case(rng, kind):
    """Random points: normal, on an integer grid (exact ties), unit rows with
    some zero rows, or fewer distinct points than k, so that a Lloyd step
    empties a cluster that no point can re-seed; n in [3, 400], d in [1, 12],
    k up to 12."""
    n, d = int(rng.integers(3, 401)), int(rng.integers(1, 13))
    k = int(rng.integers(1, min(12, n) + 1))
    if kind == "grid":
        return rng.integers(0, 3, size=(n, d)).astype(float), k
    if kind == "few_distinct":
        k = max(k, 2)
        distinct = rng.standard_normal((int(rng.integers(1, k)), d))
        return distinct[rng.integers(0, len(distinct), size=n)], k
    points = rng.standard_normal((n, d))
    if kind == "unit_rows":
        points /= np.linalg.norm(points, axis=1)[:, None]
        points[rng.random(n) < 0.2] = 0.0
    return points, k


def _kmeans_pair(points, k, seed, monkeypatch):
    """kmeans as it stands, and with the direct-distance Lloyd of the oracles."""
    got = kmeans(points, k, seed)
    with monkeypatch.context() as m:
        m.setattr(kmeans_module, "_lloyd", direct_lloyd)
        expect = kmeans(points, k, seed)
    return got, expect


KMEANS_KINDS = ["normal", "grid", "unit_rows", "few_distinct"]


@pytest.mark.parametrize("kind", KMEANS_KINDS)
def test_kmeans_equals_the_direct_distance_lloyd(kind, monkeypatch):
    rng = np.random.default_rng(KMEANS_KINDS.index(kind))
    if kind == "few_distinct":
        # fewer distinct points than clusters: a step empties a cluster that
        # no point can re-seed, and both Lloyds end the restart there; the cap
        # keeps the test short should either not
        monkeypatch.setattr(kmeans_module, "MAX_ITER", 10)
        monkeypatch.setattr(oracles, "MAX_ITER", 10)
    for seed in range(100):
        points, k = _kmeans_case(rng, kind)
        (labels, inertia), (expect_labels, expect_inertia) = _kmeans_pair(points, k, seed, monkeypatch)
        assert np.array_equal(labels, expect_labels)
        assert inertia == expect_inertia


@pytest.mark.parametrize("kind", KMEANS_KINDS)
def test_lloyd_equals_the_direct_lloyd_from_starts_that_empty_clusters(kind, monkeypatch):
    # a restart's labels, inertia and centres, not only the winner's: repeated
    # and far-off starts empty clusters, so some restarts converge on the step
    # after a re-seed, with no closing assignment, and some end where no point
    # can re-seed an emptied cluster
    monkeypatch.setattr(kmeans_module, "MAX_ITER", 30)
    monkeypatch.setattr(oracles, "MAX_ITER", 30)
    rng = np.random.default_rng(50 + KMEANS_KINDS.index(kind))
    for _ in range(100):
        points, k = _kmeans_case(rng, kind)
        k = max(k, 2)
        start = points[rng.integers(0, len(points), size=k)]
        start[rng.random(k) < 0.3] = start[0]
        start[rng.random(k) < 0.2] += 100.0
        columns = np.ascontiguousarray(points.T)
        norm_bound = float(np.sqrt((points * points).sum(axis=1).max()))
        got, expect = start.copy(), start.copy()
        labels, inertia = kmeans_module._lloyd(points, got, columns, norm_bound)
        expect_labels, expect_inertia = direct_lloyd(points, expect, columns, norm_bound)
        assert np.array_equal(labels, expect_labels)
        assert inertia == expect_inertia
        assert np.array_equal(got, expect)


def test_lloyd_reseeds_each_emptied_cluster_with_a_point_of_its_own(monkeypatch):
    # all five points go to the first centre; the two emptied clusters take
    # the farthest point, then the farthest left in a cluster of two or more,
    # and every centre is then the mean of its cluster
    monkeypatch.setattr(kmeans_module, "MAX_ITER", 1)
    points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0], [50.0, 0.0]])
    centers = np.array([[0.0, 0.0], [1000.0, 1000.0], [-1000.0, 1000.0]])
    columns = np.ascontiguousarray(points.T)
    norm_bound = float(np.sqrt((points * points).sum(axis=1).max()))
    kmeans_module._lloyd(points, centers, columns, norm_bound)
    assert centers.tolist() == [[(0 + 0.1 + 10) / 3, 0.0], [50.0, 0.0], [10.1, 0.0]]


def test_kmeans_restarts_end_when_no_point_can_reseed_an_emptied_cluster(monkeypatch):
    # 300 rows of 3 distinct points and k = 4: a step empties a cluster, and
    # every point that could re-seed it sits on its own centre
    rng = np.random.default_rng(8)
    rows = rng.integers(0, 3, size=300)
    points = rng.standard_normal((3, 4))[rows]
    assign, calls = kmeans_module._assign, []
    monkeypatch.setattr(kmeans_module, "_assign", lambda *args: calls.append(1) or assign(*args))
    labels, inertia = kmeans(points, 4, 0)
    assert len(calls) <= 3 * kmeans_module.N_RESTARTS
    assert inertia == 0.0
    assert labels_match_up_to_permutation(labels, rows)


def test_kmeans_equals_the_direct_distance_lloyd_on_a_planted_embedding(monkeypatch):
    planted, _ = planted_codebook(np.random.default_rng(17), 4, 60)
    emb = _iterative_embedding(build_graph(planted), 4)
    emb = emb / np.linalg.norm(emb, axis=1)[:, None]
    for seed in range(5):
        (labels, inertia), (expect_labels, expect_inertia) = _kmeans_pair(emb, 4, seed, monkeypatch)
        assert np.array_equal(labels, expect_labels)
        assert inertia == expect_inertia


@pytest.mark.parametrize("d", range(1, 8))
def test_kmeans_equals_the_row_sum_plusplus_seeding_bitwise(d, monkeypatch):
    rng = np.random.default_rng(100 + d)
    # the seeding is under test; Lloyd runs alike in both arms, and its cap
    # bounds any case that neither converges nor runs out of re-seeds
    monkeypatch.setattr(kmeans_module, "MAX_ITER", 20)

    def row_form(columns, k, rng):
        return plusplus_init_rows(np.ascontiguousarray(columns.T), k, rng)

    for case in range(40):
        n = int(rng.integers(3, 401))
        k = min(int(rng.integers(1, 9)), n)
        kind = case % 4
        if kind == 0:
            points = rng.integers(0, 3, size=(n, d)).astype(float)  # exact ties
        elif kind == 3:
            # zero rows and one other point: the seeding runs out of distance
            points = np.zeros((n, d))
            points[rng.random(n) < 0.5] = rng.standard_normal(d)
        else:
            points = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
            if kind == 2:
                points[rng.random(n) < 0.2] = 0.0
        columns = np.ascontiguousarray(points.T)
        for center in points[rng.integers(0, n, size=3)]:
            assert np.array_equal(
                kmeans_module._squared_distances(columns, center), ((points - center) ** 2).sum(axis=1)
            )
        seed = int(rng.integers(2 ** 32))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        centers = kmeans_module._plusplus_init(columns, k, a)
        assert np.array_equal(centers, plusplus_init_rows(points, k, b))
        assert a.bit_generator.state == b.bit_generator.state
        labels, inertia = kmeans(points, k, seed)
        with monkeypatch.context() as m:
            m.setattr(kmeans_module, "_plusplus_init", row_form)
            expect_labels, expect_inertia = kmeans(points, k, seed)
        assert np.array_equal(labels, expect_labels)
        assert inertia == expect_inertia


CHOICE_CASES = ["one_point", "single_nonzero", "zeros", "trailing_zeros", "4000_points"]


@pytest.mark.parametrize("case", CHOICE_CASES)
def test_plusplus_draw_equals_generator_choice(case):
    # the seeding draws without numpy's checks of p; this pins the draw, and
    # the generator state after it, to every numpy release the suite runs on
    rng = np.random.default_rng(40 + CHOICE_CASES.index(case))
    for _ in range(200):
        n = {"one_point": 1, "4000_points": 4000}.get(case, int(rng.integers(2, 600)))
        weights = rng.random(n) ** 4 * 10.0 ** rng.integers(-300, 300)
        if case == "single_nonzero":
            weights = np.zeros(n)
            weights[rng.integers(n)] = rng.random() + 1e-300
        elif case == "zeros":
            weights[rng.random(n) < 0.6] = 0.0
            weights[rng.integers(n)] = 1.0
        elif case == "trailing_zeros":
            weights[int(rng.integers(1, n)):] = 0.0
        p = weights / weights.sum()
        seed = int(rng.integers(2 ** 32))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert kmeans_module._choice(p, a) == int(b.choice(n, p=p))
        assert a.bit_generator.state == b.bit_generator.state


def test_assign_with_one_tie_bound_equals_the_direct_argmin():
    # norms from 1e-3 to 1e3 share one bound, taken at the largest; a third
    # of the points sit on the bisector of centres 0 and 1, some nudged a few
    # ulps off it, so their best two direct distances tie or nearly tie
    rng = np.random.default_rng(45)
    ties = 0
    for _ in range(60):
        n, d, k = 600, int(rng.integers(2, 13)), int(rng.integers(2, 7))
        points = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        centers = points[rng.choice(n, k, replace=False)] * (1.0 + rng.random((k, 1)))
        mid, normal = (centers[0] + centers[1]) / 2, centers[1] - centers[0]
        on = rng.random(n) < 1 / 3
        points[on] -= ((points[on] - mid) @ normal / (normal @ normal))[:, None] * normal
        points[on] *= 1.0 + rng.integers(-4, 5, size=(int(on.sum()), 1)) * np.finfo(np.float64).eps
        columns = np.ascontiguousarray(points.T)
        norm_bound = float(np.sqrt((points * points).sum(axis=1).max()))
        labels = kmeans_module._assign(points, columns, norm_bound, centers)
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(labels, np.argmin(d2, axis=1))
        top = np.sort(d2, axis=1)[:, :2]
        ties += int((top[:, 1] - top[:, 0] <= 1e-12 * top[:, 1]).sum())
    assert ties > 1000


@pytest.mark.parametrize("value, row", [(np.nan, 0), (np.inf, 2), (-np.inf, 1)])
def test_kmeans_refuses_a_non_finite_point(value, row):
    points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    points[row, 0] = value
    points[3, 1] = value  # only the first such row is named
    with pytest.raises(ShapeError, match=f"point {row} is not finite"):
        kmeans(points, 2, 0)


def test_kmeans_refuses_points_that_are_not_rows():
    with pytest.raises(ShapeError, match="2-D"):
        kmeans(np.arange(4.0), 4, 0)


# --- propagation ---

def test_propagate_all_same_code():
    c = code(1, 1, 1)
    global_book = book([(c, 6)])
    site_book = book([(c, 6)], origin="site0")
    maps = [(site_book, np.zeros(6, dtype=int))]
    out = propagate_labels(np.array([2]), global_book, maps)
    assert np.array_equal(out[0], np.full(6, 2))


def test_propagate_identical_codes_same_label():
    c1, c2 = code(1, -1), code(-1, 1)
    global_book = book([(c1, 3), (c2, 3)])
    site_a = book([(c1, 2), (c2, 1)], origin="site0")
    site_b = book([(c1, 1), (c2, 2)], origin="site1")
    partition = np.array([0, 1])
    maps = [
        (site_a, np.array([0, 0, 1])),
        (site_b, np.array([0, 1, 1])),
    ]
    per_site = propagate_labels(partition, global_book, maps)
    label_of = {}
    for site, (sbook, smap) in zip(per_site, maps):
        for sample, entry_idx in zip(site, smap):
            label_of.setdefault(word_bytes(sbook.codes, 2)[entry_idx], set()).add(int(sample))
    assert all(len(v) == 1 for v in label_of.values())
    # histogram covers every sample
    assert sum(len(s) for s in per_site) == 6


def test_propagate_unknown_code():
    global_book = book([(code(1, 1), 2)])
    site_book = book([(code(-1, -1), 2)], origin="site0")
    with pytest.raises(InconsistentStateError):
        propagate_labels(np.array([0]), global_book, [(site_book, np.zeros(2, dtype=int))])


def _labels_by_code(partition, global_book, site_book):
    """Each sample's label, looked up by its code's bytes: the dict the arrays replace."""
    vertex = {c: i for i, c in enumerate(word_bytes(global_book.codes, global_book.code_length))}
    site_codes = word_bytes(site_book.codes, site_book.code_length)
    return np.repeat([partition[vertex[c]] for c in site_codes], site_book.degrees)


@pytest.mark.parametrize("global_order", ["merged", "reversed"])
def test_propagate_from_a_payload_with_unsorted_repeated_codes(global_order):
    site = [(code(1, 1, -1, 1, -1), 2), (code(-1, 1, 1, -1, -1), 3), (code(1, 1, -1, 1, -1), 4),
            (code(-1, -1, -1, -1, 1), 1)]
    payload = encode_codes_payload(codebook_of([packed(c) for c, _ in site], [d for _, d in site], 5))
    decoded = decode_codes_payload(payload, 5, origin="site0")
    global_book = merge_codebooks([decoded])
    if global_order == "reversed":
        global_book = reordered(global_book, slice(None, None, -1))
    partition = np.array([7, 5, 9])
    (labels,) = propagate_labels(partition, global_book, [(decoded, np.repeat(np.arange(4), [2, 3, 4, 1]))])
    assert np.array_equal(labels, _labels_by_code(partition, global_book, decoded))
    assert labels[0] == labels[-2]  # the repeated code: one label


@pytest.mark.parametrize("global_order", ["merged", "reversed"])
@pytest.mark.parametrize("length", [65, 128])
def test_merge_and_propagate_of_multi_word_codes_match_the_dicts(length, global_order):
    rng = np.random.default_rng(length)
    bits = rng.choice([-1, 1], size=(12, length))
    bits[6:, :64] = bits[0, :64]  # codes 0 and 6-11 differ only after their first word
    codes = [packed(row) for row in bits]
    # unsorted payloads with repeated codes; site 0 holds code 7
    picks = [[7, *rng.integers(12, size=7)], *rng.integers(12, size=(2, 8))]
    books = [
        decode_codes_payload(
            encode_codes_payload(codebook_of([codes[i] for i in p], [int(rng.integers(1, 5)) for i in p], length)),
            length, origin=f"site{s}",
        )
        for s, p in enumerate(picks)
    ]
    total = {}
    for b in books:
        for c, d in zip(word_bytes(b.codes, length), b.degrees.tolist()):
            total[c] = total.get(c, 0) + d
    merged = merge_codebooks(books)
    assert list(zip(word_bytes(merged.codes, length), merged.degrees.tolist())) == sorted(total.items())

    global_book = merged if global_order == "merged" else reordered(merged, slice(None, None, -1))
    partition = rng.permutation(len(global_book))
    maps = [(b, np.repeat(np.arange(len(b)), b.degrees)) for b in books]
    for b, labels in zip(books, propagate_labels(partition, global_book, maps)):
        assert np.array_equal(labels, _labels_by_code(partition, global_book, b))

    short = reordered(global_book, np.array([c != codes[7] for c in word_bytes(global_book.codes, length)]))
    with pytest.raises(InconsistentStateError, match="'site0' holds a code missing"):
        propagate_labels(partition[: len(short)], short, maps)


@pytest.mark.parametrize("length", [8, 12, 24])
def test_propagate_rejects_a_site_book_of_another_code_length(length):
    global_book = codebook_of([b"\x12\x30", b"\xab\xc0"], [2, 1], 16)
    # at L = 12 the site code has the same two bytes as a global code
    site_book = codebook_of([b"\x12\x30\x00"[: (length + 7) // 8]], [2], length, origin="site0")
    with pytest.raises(InconsistentStateError, match=f"'site0' has {length}-bit codes"):
        propagate_labels(np.array([0, 1]), global_book, [(site_book, np.zeros(2, dtype=int))])


def test_global_site_path_builds_no_code_objects(monkeypatch):
    planted, groups = planted_codebook(np.random.default_rng(18), 2, 60)
    # site 1 holds every second code, in reverse order
    payloads = [encode_codes_payload(planted), encode_codes_payload(reordered(planted, slice(None, None, -2)))]

    def refuse(*args, **kwargs):
        raise AssertionError("a code object was built")

    monkeypatch.setattr(codebook, "CodebookEntry", refuse)
    monkeypatch.setattr(codebook, "HashCode", refuse)
    monkeypatch.setattr(network, "HashCode", refuse)
    books = [decode_codes_payload(p, 16, origin=f"site{i}") for i, p in enumerate(payloads)]
    merged = merge_codebooks(books)
    partition = spectral_cluster(build_graph(merged), 2, seed=0)
    per_site = propagate_labels(partition, merged, [(b, np.repeat(np.arange(len(b)), b.degrees)) for b in books])
    monkeypatch.undo()

    degrees = planted.degrees.copy()
    degrees[1::2] *= 2
    assert np.array_equal(merged.codes, planted.codes) and np.array_equal(merged.degrees, degrees)
    assert labels_match_up_to_permutation(partition, groups)
    for b, labels in zip(books, per_site):
        assert np.array_equal(labels, _labels_by_code(partition, merged, b))


def test_kmeans_refuses_a_cluster_count_outside_one_to_n():
    for k, message in ((0, "k must be >= 1, got 0"), (4, "k=4 incompatible with 3 points")):
        with pytest.raises(InvalidSpecError, match=f"^{message}$"):
            kmeans(np.zeros((3, 2)), k, 0)


@pytest.mark.parametrize("k, message", BAD_COUNTS)
def test_kmeans_refuses_a_cluster_count_that_is_not_an_integer(k, message):
    with pytest.raises(InvalidSpecError, match=f"^k {re.escape(message)}$"):
        kmeans(np.arange(8.0).reshape(4, 2), k, 0)


@pytest.mark.parametrize("seed, message", BAD_SEEDS)
def test_kmeans_refuses_a_seed_that_is_not_a_nonnegative_integer(seed, message):
    with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
        kmeans(np.arange(8.0).reshape(4, 2), 2, seed)


@pytest.mark.parametrize("k, message", BAD_COUNTS)
def test_spectral_cluster_refuses_a_cluster_count_that_is_not_an_integer(k, message):
    with pytest.raises(InvalidSpecError, match=f"^k {re.escape(message)}$"):
        spectral_cluster(planted_codebook(np.random.default_rng(0), 2, 6)[0], k, 0)


@pytest.mark.parametrize("seed, message", BAD_SEEDS)
def test_spectral_cluster_refuses_a_seed_that_is_not_a_nonnegative_integer(seed, message):
    with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
        spectral_cluster(planted_codebook(np.random.default_rng(0), 2, 6)[0], 2, seed)


def test_kmeans_and_spectral_cluster_take_numpy_integers():
    points = np.random.default_rng(3).normal(size=(30, 2))
    labels, inertia = kmeans(points, 3, 11)
    got_labels, got_inertia = kmeans(points, np.int64(3), np.uint32(11))
    assert np.array_equal(got_labels, labels) and got_inertia == inertia
    book = planted_codebook(np.random.default_rng(0), 2, 6)[0]
    assert np.array_equal(spectral_cluster(book, np.int32(2), np.uint64(5)), spectral_cluster(book, 2, 5))


def test_spectral_refuses_a_matrix_that_is_not_square_and_a_partition_of_another_size():
    with pytest.raises(ShapeError, match=r"^adjacency must be square, got \(2, 3\)$"):
        spectral_cluster(np.zeros((2, 3)), 1, 0)
    book = codebook_of([packed([1, -1, 1])], [3], 3)
    with pytest.raises(ShapeError, match="^partition does not match the global codebook$"):
        propagate_labels(np.zeros(2, dtype=int), book, [])


def test_spectral_cluster_puts_every_vertex_of_all_zero_weights_in_cluster_0():
    assert spectral_cluster(np.zeros((3, 3)), 2, 0).tolist() == [0, 0, 0]
