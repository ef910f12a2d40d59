"""Laplacians, the Jacobi eigensolver, lambda2, and PSD certificates."""

import math

import numpy as np
import pytest

import oracles
from eccbounds import _kernels
from eccbounds.bounds import gamma
from eccbounds.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    random_tree,
    star_graph,
)
from eccbounds.metrics import all_pairs_distances, power_graph
from eccbounds.spectral import (
    NOT_PSD,
    PSD,
    JacobiConvergenceError,
    eigen_decompose,
    inf_norm,
    is_psd,
    lambda2,
    laplacian,
    psd_tolerance,
)

RNG = np.random.default_rng(8675309)


def random_symmetric(n: int) -> np.ndarray:
    a = RNG.normal(size=(n, n)) * 10.0
    return (a + a.T) / 2.0


def graph_zoo() -> list[Graph]:
    zoo = [
        path_graph(2),
        path_graph(7),
        cycle_graph(5),
        complete_graph(6),
        star_graph(8),
        Graph.from_edges(4, [(0, 1), (2, 3)]),
        Graph.from_edges(5, []),
    ]
    zoo += [erdos_renyi(10, p, seed=s) for s in range(4) for p in (0.2, 0.6)]
    zoo += [random_tree(11, seed=s) for s in range(4)]
    return zoo


class TestLaplacian:
    def test_single_edge(self):
        assert np.array_equal(laplacian(path_graph(2)), [[1, -1], [-1, 1]])

    def test_triangle(self):
        lap = laplacian(complete_graph(3))
        assert np.array_equal(np.diag(lap), [2, 2, 2])
        assert np.array_equal(lap - np.diag(np.diag(lap)), -(1 - np.eye(3)))

    def test_row_sums_zero_and_exact_symmetry(self):
        for g in graph_zoo():
            lap = laplacian(g)
            assert np.array_equal(lap, lap.T)
            assert np.array_equal(lap.sum(axis=1), np.zeros(g.n))
            assert np.array_equal(np.diag(lap), g.degrees())


class TestInfNorm:
    def test_empty_matrix_has_norm_zero(self):
        # the max of no row sums; numpy's max of an empty array would raise
        assert inf_norm(np.zeros((0, 0))) == 0.0


class TestEigenDecompose:
    def test_zero_matrix(self):
        s = eigen_decompose(np.zeros((3, 3)))
        assert np.array_equal(s.eigenvalues, [0.0, 0.0, 0.0])
        assert s.residual == 0.0

    def test_path3_spectrum_against_charpoly(self):
        lap = laplacian(path_graph(3))
        # exact rational arithmetic proves {0, 1, 3} is the spectrum
        for lam in (0, 1, 3):
            assert oracles.char_poly_value(lap, lam) == 0
        s = eigen_decompose(lap)
        assert np.allclose(s.eigenvalues, [0.0, 1.0, 3.0], atol=1e-9)

    def test_path4_lambda2_closed_form(self):
        s = eigen_decompose(laplacian(path_graph(4)))
        assert abs(s.eigenvalues[1] - (2.0 - math.sqrt(2.0))) <= 1e-9

    def test_single_entry_matrix(self):
        s = eigen_decompose(np.array([[5.0]]))
        assert np.array_equal(s.eigenvalues, [5.0])

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 20])
    def test_matches_lapack_on_random_symmetric(self, n):
        a = random_symmetric(n)
        s = eigen_decompose(a)
        expected = oracles.sorted_eigenvalues(a)
        scale = max(1.0, inf_norm(a))
        assert np.allclose(s.eigenvalues, expected, atol=1e-8 * scale)
        assert s.residual <= 1e-8 * scale
        assert s.orthogonality_error <= 1e-10

    def test_matches_lapack_on_laplacians(self):
        for g in graph_zoo():
            lap = laplacian(g)
            s = eigen_decompose(lap)
            assert np.allclose(s.eigenvalues, oracles.sorted_eigenvalues(lap), atol=1e-8)

    def test_trace_preserved(self):
        for n in (3, 6, 10):
            a = random_symmetric(n)
            s = eigen_decompose(a)
            trace = float(np.trace(a))
            assert abs(s.eigenvalues.sum() - trace) <= 1e-9 * max(1.0, abs(trace))

    def test_laplacian_spectrum_nonnegative_with_zero(self):
        for g in graph_zoo():
            lap = laplacian(g)
            s = eigen_decompose(lap)
            tol = psd_tolerance(lap)
            assert s.eigenvalues[0] >= -tol
            assert abs(s.eigenvalues[0]) <= tol

    def test_connected_zero_eigenvector_is_constant(self):
        for g in graph_zoo():
            if g.n < 2 or not oracles.connected(g.adjacency_matrix()):
                continue
            s = eigen_decompose(laplacian(g))
            v0 = s.vectors[:, 0]
            assert v0.max() - v0.min() <= 1e-7

    def test_disconnected_component_count_matches_zero_eigenvalues(self):
        three_parts = Graph.from_edges(7, [(0, 1), (2, 3), (4, 5)])
        lap = laplacian(three_parts)
        s = eigen_decompose(lap)
        tol = psd_tolerance(lap)
        assert (np.abs(s.eigenvalues) <= tol).sum() >= 4  # 4 components

    def test_eigenvectors_reconstruct_matrix(self):
        a = random_symmetric(7)
        s = eigen_decompose(a)
        rebuilt = s.vectors @ np.diag(s.eigenvalues) @ s.vectors.T
        assert np.allclose(rebuilt, a, atol=1e-8 * max(1.0, inf_norm(a)))

    def test_rejects_nonsquare_and_asymmetric(self):
        with pytest.raises(ValueError):
            eigen_decompose(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            eigen_decompose(np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]]))

    def test_sweep_count_bounded(self):
        assert eigh_start_sweeps(random_symmetric(20)) == 0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        # without the test, [[1, inf], [inf, 1]] passes as symmetric and solves to NaN pairs
        for a in (np.array([[bad]]), np.array([[1.0, bad], [bad, 1.0]]), np.diag([0.0, bad, 2.0])):
            with pytest.raises(ValueError, match=r"^matrix has a non-finite entry \(inf or NaN\)$"):
                eigen_decompose(a)


def eigh_start_sweeps(a: np.ndarray) -> int:
    """The kernel's sweeps from ``eigh``'s basis, as the solver runs it; its pairs are bitwise the solver's."""
    sweeps, w, v = _kernels.jacobi_sweeps(a[None], np.linalg.eigh(a[None])[1])
    s = eigen_decompose(a)
    assert np.array_equal(w[0], s.eigenvalues) and np.array_equal(v[0], s.vectors)
    return sweeps


def assert_matches_oracle(a: np.ndarray):
    """Eigenvalues agree with the oracle; residual and orthogonality near roundoff."""
    s = eigen_decompose(a)
    scale = max(1.0, inf_norm(a))
    assert np.allclose(s.eigenvalues, oracles.sorted_eigenvalues(a), rtol=0, atol=1e-10 * scale)
    assert s.residual <= 1e-12 * scale
    assert s.orthogonality_error <= 1e-12
    return s


class TestLapackSeededStart:
    """The solve starts from eigh's basis, so Jacobi only polishes roundoff."""

    @pytest.mark.parametrize(
        "a",
        [
            laplacian(complete_graph(9)),  # eigenvalue 9, multiplicity 8
            laplacian(star_graph(15)),  # eigenvalue 1, multiplicity 13
            laplacian(cycle_graph(12)),  # five double eigenvalues
            np.zeros((5, 5)),
            np.array([[-2.5]]),
            np.array([[1.0, -1.0], [-1.0, 1.0]]),
        ],
        ids=["K9", "star15", "C12", "zero5", "n1", "n2"],
    )
    def test_degenerate_and_edge_spectra(self, a):
        assert_matches_oracle(a)

    def test_three_triangles_have_a_triple_zero(self):
        triangles = [(i + j, i + k) for i in (0, 3, 6) for j, k in ((0, 1), (1, 2), (0, 2))]
        s = assert_matches_oracle(laplacian(Graph.from_edges(9, triangles)))
        assert np.allclose(s.eigenvalues, [0.0] * 3 + [3.0] * 6, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [12, 50, 100])
    def test_no_sweep_on_er_laplacians(self, n):
        # an identity start takes 5-9 sweeps on these; 0 sweeps pins the eigh
        # seed and the stopping rule tested before the first sweep
        for seed in range(5):
            g = erdos_renyi(n, min(0.3, 6.0 / (n - 1)), seed=seed)
            assert_matches_oracle(laplacian(g))
            assert eigh_start_sweeps(laplacian(g)) == 0

    def test_stopping_rule_is_relative_to_each_member(self):
        # an absolute 1e-12 would sweep the scaled-up member, which cannot get below it
        lap = laplacian(erdos_renyi(12, 0.3, seed=1))
        stack = np.stack([lap * 1e-6, lap, lap * 1e6])
        assert _kernels.jacobi_sweeps(stack, np.linalg.eigh(stack)[1])[0] == 0

    @pytest.mark.parametrize("n", [12, 50])
    def test_schedule_not_built_without_a_sweep(self, monkeypatch, n):
        def no_schedule(size):
            raise AssertionError("round-robin schedule built")

        monkeypatch.setattr(_kernels, "round_robin", no_schedule)
        for seed in range(5):
            assert_matches_oracle(laplacian(erdos_renyi(n, min(0.3, 6.0 / (n - 1)), seed=seed)))

    def test_sweep_cap_raises(self, monkeypatch):
        # the kernel owns the error; spectral re-exports that one class
        assert JacobiConvergenceError is _kernels.JacobiConvergenceError
        monkeypatch.setattr(_kernels, "OFF_DIAG_REL_TOL", 0.0)
        monkeypatch.setattr(_kernels, "MAX_SWEEPS", 0)
        with pytest.raises(JacobiConvergenceError, match=r"after 0 sweeps \(n=12, .*target 0\.000e\+00\)"):
            eigen_decompose(laplacian(erdos_renyi(12, 0.3, seed=1)))

    @pytest.mark.parametrize("shrink", [1.0, 4.0])
    def test_certificate_matrix(self, shrink):
        g = erdos_renyi(12, 0.3, seed=3)
        assert oracles.connected(g.adjacency_matrix())
        power = laplacian(power_graph(all_pairs_distances(g), 2))
        s = assert_matches_oracle(gamma(g.n, 2) / shrink * laplacian(g) - power)
        if shrink == 1.0:  # the g1 certificate: PSD, with the all-ones null vector
            assert abs(s.eigenvalues[0]) <= 1e-9 and s.eigenvalues[1] > 1.0
        else:  # (gamma / 4) L(G) - L(G^2) is indefinite
            assert s.eigenvalues[0] < -1.0 and s.eigenvalues[-1] > 1.0


class TestLambda2:
    def test_complete_graph(self):
        assert abs(lambda2(complete_graph(4)) - 4.0) <= 1e-9

    def test_disconnected_is_zero(self):
        assert abs(lambda2(Graph.from_edges(4, [(0, 1), (2, 3)]))) <= 1e-9

    def test_cycle_closed_form(self):
        assert abs(lambda2(cycle_graph(5)) - oracles.lambda2_cycle(5)) <= 1e-9

    def test_positive_iff_connected(self):
        for g in graph_zoo():
            if g.n < 2:
                continue
            if oracles.connected(g.adjacency_matrix()):
                assert lambda2(g) > 1e-9
            else:
                assert abs(lambda2(g)) <= 1e-9

    def test_rejects_single_node(self):
        with pytest.raises(ValueError, match="algebraic connectivity undefined"):
            lambda2(Graph.from_edges(1, []))


class TestIsPsd:
    def test_identity(self):
        res = is_psd(np.eye(3))
        assert res.verdict == PSD
        assert abs(res.min_eigenvalue - 1.0) <= 1e-12
        assert res.tolerance == 1e-8

    def test_indefinite_diagonal(self):
        res = is_psd(np.diag([1.0, -1.0]))
        assert res.verdict == NOT_PSD
        assert abs(res.min_eigenvalue + 1.0) <= 1e-12

    def test_scaled_laplacian_difference(self):
        m = 8.0 * laplacian(path_graph(4)) - laplacian(complete_graph(4))
        res = is_psd(m)
        assert res.verdict == PSD
        assert res.tolerance == psd_tolerance(m)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gets_no_verdict(self, bad):
        # [[inf]] read PSD, with min eigenvalue and tolerance inf
        for a in (np.array([[bad]]), np.array([[1.0, bad], [bad, 1.0]])):
            with pytest.raises(ValueError, match="non-finite entry"):
                is_psd(a)

    def test_default_tolerance_scales_with_norm(self):
        big = 1e6 * np.eye(4)
        assert psd_tolerance(big) == 1e-8 * 1e6
        assert psd_tolerance(np.zeros((2, 2))) == 1e-8

    def test_verdict_consistent_with_fields(self):
        for g in graph_zoo():
            if g.n < 2:
                continue
            res = is_psd(laplacian(g))
            assert (res.verdict == PSD) == (res.min_eigenvalue >= -res.tolerance)
