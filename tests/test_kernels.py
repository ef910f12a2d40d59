"""The all-pairs BFS and Jacobi sweep kernels against independent references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import eccbounds._kernels as kernels
from eccbounds.graphs import Graph, path_graph
from eccbounds.spectral import MAX_SWEEPS, OFF_DIAG_REL_TOL


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
    assert dist.dtype == np.int64 and dist.shape == (n, n)
    assert np.array_equal(dist, expected)
    return dist


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


def run_jacobi(a: np.ndarray):
    work = np.array(a, dtype=np.float64, copy=True)
    vecs = np.eye(a.shape[0])
    off_tol = OFF_DIAG_REL_TOL * float(np.linalg.norm(a))
    sweeps, converged = kernels.jacobi_sweeps(work, vecs, off_tol, MAX_SWEEPS)
    return np.sort(np.diag(work)), vecs, sweeps, converged


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

    def test_long_path_uses_nine_bit_planes(self):
        dist = assert_bfs_matches_floyd_warshall(300, [(i, i + 1) for i in range(299)])
        assert dist.max() == 299

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


class TestJacobiKernels:
    def test_numpy_fallback_converges(self):
        for a in sample_matrices():
            eigs, vecs, sweeps, converged = run_jacobi(a)
            assert converged and sweeps <= MAX_SWEEPS
            assert np.allclose(eigs, np.linalg.eigvalsh(a), atol=1e-9 * max(1.0, np.abs(a).max()))
            assert np.allclose(vecs.T @ vecs, np.eye(a.shape[0]), atol=1e-10)
