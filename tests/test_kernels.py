"""The all-pairs BFS and Jacobi sweep kernels against independent references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import eccbounds._kernels as kernels
from eccbounds.graphs import Graph, complete_graph, erdos_renyi, path_graph
from eccbounds.spectral import laplacian


def sample_matrices() -> list[np.ndarray]:
    rng = np.random.default_rng(4242)
    mats = [np.zeros((3, 3)), np.eye(4), np.diag([3.0, -1.0, 2.0])]
    for n in (2, 5, 9, 16):
        a = rng.normal(size=(n, n)) * 5.0
        mats.append((a + a.T) / 2.0)
    return mats


def assert_bfs_matches_floyd_warshall(n: int, edges) -> np.ndarray:
    """Run the kernel on the graph and compare with Floyd-Warshall on its edge list."""
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    expected = oracles.floyd_warshall(adj)
    expected = np.where(np.isinf(expected), -1, expected).astype(np.int64)
    g = Graph.from_edges(n, edges)
    dist = kernels.bfs_all_pairs(g.indptr, g.indices, g.n)
    assert dist.dtype == narrow_type(expected.max()) and dist.shape == (n, n)
    assert np.array_equal(dist, expected)
    return dist


def narrow_type(longest: int):
    """The distance type for a search whose longest distance found is ``longest``."""
    return np.int8 if longest <= 127 else np.int16


def random_tree_edges(n: int, rng) -> list[tuple[int, int]]:
    """Random recursive tree under a random relabelling."""
    label = rng.permutation(n)
    return [(int(label[i]), int(label[rng.integers(i)])) for i in range(1, n)]


def random_edges(n: int, p: float, rng) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


@st.composite
def graphs_up_to_70(draw):
    n = draw(st.integers(min_value=1, max_value=70))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=3 * n)) if n > 1 else []
    return n, edges


def run_jacobi(a: np.ndarray, basis: np.ndarray | None = None) -> tuple[int, np.ndarray, np.ndarray]:
    """The kernel on a stack of one from ``basis`` (the identity by default): (sweeps, eigenvalues, vectors)."""
    basis = np.eye(a.shape[0]) if basis is None else basis
    sweeps, eigenvalues, vectors = kernels.jacobi_sweeps(np.asarray(a, dtype=np.float64)[None], basis[None].copy())
    assert eigenvalues.shape == (1, a.shape[0]) and vectors.shape == (1, *a.shape)
    return sweeps, eigenvalues[0], vectors[0]


def assert_decomposes(a: np.ndarray) -> int:
    """Eigenvalues ascending and matching the LAPACK oracle, each column of V its eigenvector."""
    sweeps, w, vecs = run_jacobi(a)
    scale = max(1.0, np.abs(a).sum(axis=1).max())
    assert np.all(w[1:] >= w[:-1])
    assert np.allclose(w, oracles.sorted_eigenvalues(a), rtol=0, atol=1e-10 * scale)
    assert np.abs(a @ vecs - vecs * w).max() <= 1e-10 * scale
    assert np.abs(vecs.T @ vecs - np.eye(a.shape[0])).max() <= 1e-12
    return sweeps


class TestBfsKernels:
    def test_numpy_fallback_matches_reference_distances(self):
        g = path_graph(4)
        dist = kernels.bfs_all_pairs(g.indptr, g.indices, g.n)
        assert np.array_equal(dist, [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]])

    def test_unreachable_encoded_as_minus_one(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        dist = kernels.bfs_all_pairs(g.indptr, g.indices, g.n)
        assert dist[0, 2] == -1 and dist[1, 3] == -1

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129])
    def test_word_boundaries(self, n):
        rng = np.random.default_rng(n)
        assert_bfs_matches_floyd_warshall(n, random_edges(n, 3.0 / n, rng))
        assert_bfs_matches_floyd_warshall(n, random_tree_edges(n, rng))

    def test_isolated_nodes_reach_only_themselves(self):
        # isolated nodes first, between and last: an empty reduceat segment
        # would copy a neighbour's row into theirs
        edges = [(1, 2), (2, 3), (3, 1), (5, 6), (66, 67)]
        dist = assert_bfs_matches_floyd_warshall(70, edges)
        for v in (0, 4, 7, 65, 68, 69):
            assert dist[v, v] == 0 and np.count_nonzero(dist[v] == -1) == 69
        assert_bfs_matches_floyd_warshall(5, [])

    def test_several_components(self):
        rng = np.random.default_rng(7)
        edges = [(u + 90, v + 90) for u, v in random_tree_edges(50, rng)]
        edges += [(i, i + 1) for i in range(40)]
        edges += [(i, j) for i in range(60, 70) for j in range(i + 1, 70)]
        assert_bfs_matches_floyd_warshall(140, edges)

    def test_components_with_int16_distances(self):
        # a 200-node path sets int16; a triangle and an isolated node beside it read -1
        edges = [(i, i + 1) for i in range(199)] + [(200, 201), (201, 202), (200, 202)]
        assert assert_bfs_matches_floyd_warshall(204, edges).dtype == np.int16

    def test_long_path_uses_nine_bit_planes(self):
        dist = assert_bfs_matches_floyd_warshall(300, [(i, i + 1) for i in range(299)])
        assert dist.max() == 299

    def test_paths_get_the_narrowest_type(self):
        # P_n has diameter n - 1: up to 127 fits int8 (7 bit planes), 128 needs int16
        for n in [*range(2, 131), 300]:
            g = path_graph(n)
            dist = kernels.bfs_all_pairs(g.indptr, g.indices, n)
            assert dist.dtype == (np.int8 if n <= 128 else np.int16), n
            assert np.array_equal(dist, np.abs(np.subtract.outer(np.arange(n), np.arange(n)))), n

    def test_star_complete_and_random_trees(self):
        assert_bfs_matches_floyd_warshall(100, [(0, i) for i in range(1, 100)])
        assert_bfs_matches_floyd_warshall(70, [(i, j) for i in range(70) for j in range(i + 1, 70)])
        rng = np.random.default_rng(11)
        for n in (3, 17, 64, 150):
            assert_bfs_matches_floyd_warshall(n, random_tree_edges(n, rng))

    @pytest.mark.parametrize("cap_words", [1, 3, 64])
    def test_gather_split_into_runs(self, monkeypatch, cap_words):
        monkeypatch.setattr(kernels, "_GATHER_WORDS", cap_words)
        rng = np.random.default_rng(cap_words)
        assert_bfs_matches_floyd_warshall(130, random_edges(130, 0.05, rng) + [(0, 5)])
        assert_bfs_matches_floyd_warshall(80, [(0, i) for i in range(1, 80)])

    @given(graphs_up_to_70())
    @settings(max_examples=60, deadline=None)
    def test_matches_floyd_warshall_on_random_graphs(self, graph):
        assert_bfs_matches_floyd_warshall(*graph)


def assert_bounded_bfs_matches_floyd_warshall(n: int, edges) -> int:
    """For every depth 1..diameter + 1 and 10**20: ``power_pairs`` gives, in lexicographic
    order, the pairs u < v that Floyd-Warshall puts at most depth apart.

    Returns the diameter (of the largest component when disconnected).
    """
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    full = oracles.floyd_warshall(adj)
    diameter = int(full[np.isfinite(full)].max())
    g = Graph.from_edges(n, edges)
    for depth in [*range(1, diameter + 2), 10**20]:
        us, vs = kernels.power_pairs(g.indptr, g.indices, g.n, depth)
        expected = np.nonzero(np.triu(full <= depth, k=1))  # row-major: lexicographic
        assert np.array_equal(us, expected[0]) and np.array_equal(vs, expected[1]), depth
    return diameter


class TestBoundedBfs:
    """``power_pairs``: the search stopped after ell levels, its rows read as G^ell's edges."""

    @pytest.mark.parametrize("n", [2, 12, 64, 65, 130])
    def test_seeded_erdos_renyi(self, n):
        rng = np.random.default_rng(100 + n)
        assert_bounded_bfs_matches_floyd_warshall(n, random_edges(n, 3.0 / n, rng))

    @pytest.mark.parametrize("n", [3, 40, 65, 150])
    def test_seeded_trees(self, n):
        rng = np.random.default_rng(200 + n)
        assert assert_bounded_bfs_matches_floyd_warshall(n, random_tree_edges(n, rng)) >= 2

    def test_disconnected(self):
        rng = np.random.default_rng(5)
        edges = [(u + 30, v + 30) for u, v in random_tree_edges(40, rng)]
        edges += [(i, i + 1) for i in range(20)] + [(22, 23)]
        assert assert_bounded_bfs_matches_floyd_warshall(75, edges) >= 20

    def test_single_node(self):
        assert assert_bounded_bfs_matches_floyd_warshall(1, []) == 0
        g = Graph.from_edges(1, [])
        assert [a.tolist() for a in kernels.power_pairs(g.indptr, g.indices, 1, 5)] == [[], []]

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
    def test_complete_rows_cut_at_every_bit(self, n):
        # every row full: the cut above node u clears bit u % 64 of its word, bit 63 too
        assert_bounded_bfs_matches_floyd_warshall(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    def test_stops_at_ell_levels(self, monkeypatch):
        levels = []
        original = kernels._levels

        def counted(*args):
            for level in original(*args):
                levels.append(len(levels))
                yield level

        monkeypatch.setattr(kernels, "_levels", counted)
        g = path_graph(40)
        kernels.power_pairs(g.indptr, g.indices, g.n, 3)
        assert levels == [0, 1, 2, 3]

    @given(graphs_up_to_70())
    @settings(max_examples=40, deadline=None)
    def test_matches_floyd_warshall_on_random_graphs(self, graph):
        assert_bounded_bfs_matches_floyd_warshall(*graph)


class TestJacobiKernels:
    def test_numpy_fallback_converges(self):
        for a in sample_matrices():
            sweeps, w, vecs = run_jacobi(a)
            assert sweeps <= kernels.MAX_SWEEPS
            assert np.allclose(w, oracles.sorted_eigenvalues(a), atol=1e-9 * max(1.0, np.abs(a).max()))
            assert np.allclose(vecs.T @ vecs, np.eye(a.shape[0]), atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 13])
    def test_random_symmetric_matches_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        a = rng.normal(size=(n, n)) * 3.0
        assert_decomposes((a + a.T) / 2.0)

    def test_repeated_eigenvalue(self):
        # L(K_9) has eigenvalue 9 with multiplicity 8
        assert_decomposes(laplacian(complete_graph(9)))

    def test_diagonal_input_untouched(self, monkeypatch):
        # a zero tolerance still passes a zero off-diagonal norm: the diagonal is only sorted
        monkeypatch.setattr(kernels, "OFF_DIAG_REL_TOL", 0.0)
        a = np.diag([4.0, -2.0, 0.0, 7.5, 1.0])
        work, vecs = a[None].copy(), np.eye(5)[None]
        sweeps, w, v = kernels.jacobi_sweeps(work, vecs)
        assert sweeps == 0 and w.tolist() == [[-2.0, 0.0, 1.0, 4.0, 7.5]]
        assert np.array_equal(v[0], np.eye(5)[:, [1, 2, 4, 0, 3]])
        assert np.array_equal(work[0], a) and np.array_equal(vecs[0], np.eye(5))

    def test_sweep_cap_reached_before_any_rotation(self, monkeypatch):
        monkeypatch.setattr(kernels, "OFF_DIAG_REL_TOL", 0.0)
        monkeypatch.setattr(kernels, "MAX_SWEEPS", 0)
        a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, -1.0], [0.0, -1.0, 1.0]])
        v = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, -0.8, 0.6]])
        work, vecs = a[None].copy(), v[None].copy()
        with pytest.raises(kernels.JacobiConvergenceError, match=r"^no convergence after 0 sweeps \(n=3, .*target 0\.000e\+00\)$"):
            kernels.jacobi_sweeps(work, vecs)
        assert np.array_equal(work[0], a) and np.array_equal(vecs[0], v)

    def test_nan_never_converges(self, monkeypatch):
        monkeypatch.setattr(kernels, "MAX_SWEEPS", 3)
        a = np.full((3, 3), np.nan)
        np.fill_diagonal(a, [1.0, 2.0, 3.0])
        with pytest.raises(kernels.JacobiConvergenceError, match=r"^no convergence after 3 sweeps \(n=3, off-diagonal norm nan, "):
            run_jacobi(a)

    def test_theta_overflow_branch(self):
        # theta = 0.5 * (a_qq - a_pp) / a_pq is +-5e159, past _THETA_OVERFLOW,
        # so tan(angle/2) is taken as 1 / (2 theta)
        positive = [[0.0, 1e-160], [1e-160, 1.0]]
        negative = [[0.0, -1e-160, 0.5], [-1e-160, 1.0, 0.0], [0.5, 0.0, 2.0]]
        for a in map(np.array, (positive, negative)):
            assert abs(0.5 * (a[1, 1] - a[0, 0]) / a[0, 1]) > kernels._THETA_OVERFLOW
            assert_decomposes(a)

    def test_equal_diagonal_negative_off_diagonal(self):
        # theta = 0 / -2 = -0.0, which takes the positive root t = 1
        a = np.array([[1.0, -2.0], [-2.0, 1.0]])
        assert np.signbit(0.5 * (a[1, 1] - a[0, 0]) / a[0, 1])
        assert_decomposes(a)
        # with t = 1, column p = (1, -1)/sqrt(2) takes eigenvalue 3, which sorts last
        _, w, vecs = run_jacobi(a)
        r = np.sqrt(0.5)
        assert np.allclose(w, [-1.0, 3.0], rtol=0, atol=1e-14)
        assert np.allclose(vecs, [[r, r], [r, -r]], rtol=0, atol=1e-15)

    def test_sweeps_on_er50_laplacians(self):
        graphs = [erdos_renyi(50, 6.0 / 49, seed) for seed in range(20)]
        sweeps = [assert_decomposes(laplacian(g)) for g in graphs]
        assert 1 <= min(sweeps) and max(sweeps) <= 9

    def test_identity_start_builds_the_schedule_once(self, monkeypatch):
        built = []
        round_robin = kernels.round_robin

        def counted(n):
            built.append(n)
            return round_robin(n)

        monkeypatch.setattr(kernels, "round_robin", counted)
        assert assert_decomposes(laplacian(erdos_renyi(50, 6.0 / 49, 0))) > 1
        assert built == [50]


class TestRoundRobin:
    @pytest.mark.parametrize("n", range(71))
    def test_rounds_disjoint_and_cover_every_pair_once(self, n):
        p, q = kernels.round_robin(n)
        assert p.shape == q.shape and p.shape[1] == n // 2
        if n >= 2:
            assert p.shape[0] == (n - 1 if n % 2 == 0 else n)
        for rp, rq in zip(p, q):
            nodes = np.concatenate([rp, rq])
            assert np.unique(nodes).size == nodes.size
        assert np.all(p < q) and np.all((p >= 0) & (q < n))
        pairs = sorted(zip(p.ravel().tolist(), q.ravel().tolist()))
        assert pairs == [(i, j) for i in range(n) for j in range(i + 1, n)]
