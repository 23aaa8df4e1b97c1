import numpy as np
import pytest

from hashclust.codebook import Codebook, CodebookEntry, encode_shard, merge_codebooks
from hashclust.errors import (
    InconsistentStateError,
    InvalidCodebookError,
    InvalidKError,
    ShapeError,
    UnsupportedSizeError,
)
from hashclust import kmeans as kmeans_module
from hashclust.kmeans import kmeans
from hashclust.network import HashCode, init_network, mlp_spec
from hashclust import spectral
from hashclust.spectral import (
    DENSE_SOLVER_MAX_VERTICES,
    build_graph,
    normalized_laplacian,
    propagate_labels,
    spectral_cluster,
)

from oracles import (
    InvalidPartitionError,
    OracleSizeError,
    brute_force_ncut,
    dense_spectral_labels,
    direct_lloyd,
    disconnected_components,
    hamming,
    labels_match_up_to_permutation,
    ncut_value,
    planted_codebook,
    planted_two_cluster,
)


def code(*bits):
    return HashCode.from_bits(np.array(bits))


def book(entries, origin="global"):
    ordered = tuple(
        CodebookEntry(code=c, degree=d)
        for c, d in sorted(entries, key=lambda e: e[0].packed)
    )
    return Codebook(entries=ordered, origin=origin)


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
    # degrees 3 and 5 at hamming 4: single off-diagonal weight 15/4
    w = np.asarray(build_graph(book([(code(1, 1, 1, 1), 3), (code(-1, -1, -1, -1), 5)])))
    assert w.shape == (2, 2)
    assert w[0, 0] == w[1, 1] == 0.0
    assert w[0, 1] == w[1, 0] == pytest.approx(3.75)


def test_graph_single_vertex():
    w = np.asarray(build_graph(book([(code(1, -1), 9)])))
    assert np.array_equal(w, np.zeros((1, 1)))


def test_graph_degree_scaling_is_quadratic():
    entries = [(code(1, 1, -1), 2), (code(1, -1, 1), 3), (code(-1, 1, 1), 4)]
    w1 = np.asarray(build_graph(book(entries)))
    w2 = np.asarray(build_graph(book([(c, 5 * d) for c, d in entries])))
    assert np.allclose(w2, 25.0 * w1)


def test_graph_rejects_duplicate_codes():
    entries = (
        CodebookEntry(code=code(1, 1), degree=1),
        CodebookEntry(code=code(1, 1), degree=2),
    )
    with pytest.raises(InvalidCodebookError):
        build_graph(Codebook(entries=entries, origin="global"))


def test_graph_rejects_codebook_above_dense_bound():
    # 32-bit codes are past the transform's reach, so the cut needs the n x n weights
    length = 32
    assert length > spectral.TRANSFORM_MAX_CODE_LENGTH
    n = DENSE_SOLVER_MAX_VERTICES + 1
    entries = tuple(
        CodebookEntry(code=HashCode(packed=i.to_bytes(4, "big"), length=length), degree=1)
        for i in range(n)
    )
    graph = build_graph(Codebook(entries=entries, origin="global"))
    assert not graph.matrix_free
    bound = f"{n} codes exceed the dense solver bound of {DENSE_SOLVER_MAX_VERTICES} vertices"
    with pytest.raises(UnsupportedSizeError, match=bound):
        np.asarray(graph)
    with pytest.raises(UnsupportedSizeError, match=bound):
        spectral_cluster(graph, 2, seed=0)


def test_graph_matches_pairwise_formula():
    rng = np.random.default_rng(0)
    params = init_network(mlp_spec(3, (4,), 4), 0)
    cb, _ = encode_shard(params, rng.normal(size=(30, 3)), origin="site")
    merged = merge_codebooks([cb])
    w = np.asarray(build_graph(merged))
    n = len(merged)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            h = hamming(merged.entries[i].code, merged.entries[j].code)
            expect = merged.entries[i].degree * merged.entries[j].degree / h
            assert w[i, j] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("length", [16, 13, 70])
def test_graph_weights_equal_hamming_weights_exactly(length):
    rng = np.random.default_rng(length)
    bits = np.unique(rng.choice([-1, 1], size=(60, length)), axis=0)
    degrees = rng.integers(1, 10 ** 6, size=len(bits))
    b = book([(HashCode.from_bits(row), int(d)) for row, d in zip(bits, degrees)])
    w = np.asarray(build_graph(b))
    for i, ei in enumerate(b.entries):
        for j, ej in enumerate(b.entries):
            expect = 0.0 if i == j else ei.degree * ej.degree / hamming(ei.code, ej.code)
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
    monkeypatch.setattr(spectral.CodeGraph, "matrix_free", matrix_free)
    graph = build_graph(planted)
    w = np.asarray(graph)
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
    w = np.asarray(build_graph(planted))
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


def test_lobpcg_k1_returns_the_known_top_without_a_product():
    w, _ = planted_two_cluster(np.random.default_rng(13), 9)

    def no_product(x):
        raise AssertionError("W was applied")

    emb = spectral._lobpcg(no_product, spectral._inv_sqrt(w.sum(axis=1)), 1)
    assert emb.shape == (9, 1)
    assert np.array_equal(emb[:, 0], _known_top(w.sum(axis=1)))


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
        monkeypatch.setattr(spectral.CodeGraph, "matrix_free", graph_kind == "transform")
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
    monkeypatch.setattr(spectral.CodeGraph, "matrix_free", True)
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
    monkeypatch.setattr(spectral.CodeGraph, "matrix_free", True)
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
        (HashCode(packed=int(c).to_bytes(2, "big"), length=12), int(d))
        for c, d in zip(codes, rng.integers(1, 50, size=1500))
    ]
    graph = build_graph(book(entries))
    assert graph.matrix_free
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


def _random_graph(length):
    """Up to 300 distinct random L-bit codes with degrees up to 1e6."""
    rng = np.random.default_rng(length)
    n = min(2 ** length, 300)
    n_bytes = (length + 7) // 8
    entries = [
        (HashCode(packed=(int(c) << (8 * n_bytes - length)).to_bytes(n_bytes, "big"), length=length), int(d))
        for c, d in zip(rng.choice(2 ** length, size=n, replace=False), rng.integers(1, 10 ** 6, size=n))
    ]
    return build_graph(book(entries)), rng


@pytest.mark.parametrize("length", [1, 3, 8, 13, 16])
def test_transform_product_equals_dense_product(length):
    graph, rng = _random_graph(length)
    x = rng.standard_normal((len(graph), 3))
    expect = np.asarray(graph) @ x
    err = np.linalg.norm(spectral._transform_product(graph)(x) - expect, axis=0)
    assert np.all(err <= 1e-13 * np.linalg.norm(expect, axis=0))


@pytest.mark.parametrize("length", [1, 3, 8, 13, 16])
def test_transform_degrees_equal_dense_row_sums(length, monkeypatch):
    graph, _ = _random_graph(length)
    expect = np.asarray(graph).sum(axis=1)
    monkeypatch.setattr(spectral.CodeGraph, "matrix_free", True)
    w, _, deg = spectral._operator(graph)
    assert w is None
    assert np.all(np.abs(deg - expect) <= 1e-13 * expect)


@pytest.mark.parametrize("per_group", [1000, 2100])
def test_large_planted_cut_never_builds_the_dense_weights(per_group, monkeypatch):
    # 4000 codes, then 8400: more than DENSE_SOLVER_MAX_VERTICES
    planted, groups = planted_codebook(np.random.default_rng(12), 4, per_group)
    graph = build_graph(planted)
    assert graph.matrix_free

    def no_dense(graph):
        raise AssertionError("the n x n weights were built")

    monkeypatch.setattr(spectral, "_dense_weights", no_dense)
    labels = spectral_cluster(graph, 4, seed=0)
    assert labels_match_up_to_permutation(labels, groups)


def test_spectral_k_equals_n():
    w = np.ones((5, 5)) - np.eye(5)
    labels = spectral_cluster(w, 5, seed=0)
    assert sorted(labels.tolist()) == list(range(5))


def test_spectral_k_too_large():
    with pytest.raises(InvalidKError):
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
    """Random points: normal, on an integer grid (exact ties), or unit rows
    with some zero rows; n in [3, 400], d in [1, 12], k up to 12."""
    n, d = int(rng.integers(3, 401)), int(rng.integers(1, 13))
    k = int(rng.integers(1, min(12, n) + 1))
    if kind == "grid":
        return rng.integers(0, 3, size=(n, d)).astype(float), k
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


@pytest.mark.parametrize("kind", ["normal", "grid", "unit_rows"])
def test_kmeans_equals_the_direct_distance_lloyd(kind, monkeypatch):
    rng = np.random.default_rng(["normal", "grid", "unit_rows"].index(kind))
    for seed in range(100):
        points, k = _kmeans_case(rng, kind)
        (labels, inertia), (expect_labels, expect_inertia) = _kmeans_pair(points, k, seed, monkeypatch)
        assert np.array_equal(labels, expect_labels)
        assert inertia == expect_inertia


def test_kmeans_equals_the_direct_distance_lloyd_on_a_planted_embedding(monkeypatch):
    planted, _ = planted_codebook(np.random.default_rng(17), 4, 60)
    emb = _iterative_embedding(build_graph(planted), 4)
    emb = emb / np.linalg.norm(emb, axis=1)[:, None]
    for seed in range(5):
        (labels, inertia), (expect_labels, expect_inertia) = _kmeans_pair(emb, 4, seed, monkeypatch)
        assert np.array_equal(labels, expect_labels)
        assert inertia == expect_inertia


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
    order = {e.code.packed: i for i, e in enumerate(global_book.entries)}
    maps = [
        (site_a, np.array([0, 0, 1])),
        (site_b, np.array([0, 1, 1])),
    ]
    per_site = propagate_labels(partition, global_book, maps)
    label_of = {}
    for site, (sbook, smap) in zip(per_site, maps):
        for sample, entry_idx in zip(site, smap):
            packed = sbook.entries[entry_idx].code.packed
            label_of.setdefault(packed, set()).add(int(sample))
    assert all(len(v) == 1 for v in label_of.values())
    # histogram covers every sample
    assert sum(len(s) for s in per_site) == 6


def test_propagate_unknown_code():
    global_book = book([(code(1, 1), 2)])
    site_book = book([(code(-1, -1), 2)], origin="site0")
    with pytest.raises(InconsistentStateError):
        propagate_labels(np.array([0]), global_book, [(site_book, np.zeros(2, dtype=int))])
