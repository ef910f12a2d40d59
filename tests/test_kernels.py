"""The all-pairs BFS and Jacobi sweep kernels against independent references."""

import numpy as np

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


class TestJacobiKernels:
    def test_numpy_fallback_converges(self):
        for a in sample_matrices():
            eigs, vecs, sweeps, converged = run_jacobi(a)
            assert converged and sweeps <= MAX_SWEEPS
            assert np.allclose(eigs, np.linalg.eigvalsh(a), atol=1e-9 * max(1.0, np.abs(a).max()))
            assert np.allclose(vecs.T @ vecs, np.eye(a.shape[0]), atol=1e-10)
