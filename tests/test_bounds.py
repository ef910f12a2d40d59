"""Bound formulas, their reductions and dominance, and evaluate_all."""

import math

import numpy as np
import pytest

import oracles
from eccbounds import _kernels
from eccbounds.bounds import (
    BOUND_NAMES,
    bound_g1,
    bound_g1_diam,
    bound_g2,
    bound_lu,
    bound_mohar,
    bound_s1,
    bound_s2_over_n,
    evaluate_all,
    gamma,
)
from eccbounds.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    random_tree,
    star_graph,
)
from eccbounds.metrics import (
    UNREACHABLE,
    all_pairs_distances,
    count_s_ell,
    eccentricities,
)
from eccbounds.spectral import eigen_decompose, lambda2, laplacian

TWO_DISJOINT_EDGES = Graph.from_edges(4, [(0, 1), (2, 3)])


class TestGamma:
    def test_reference_values(self):
        assert gamma(4, 3) == 8.0
        assert gamma(10, 5) == 85.0

    def test_ell_two_equals_n(self):
        for n in range(2, 40):
            assert gamma(n, 2) == pytest.approx(float(n), rel=1e-15)

    def test_strictly_positive_and_increasing_in_ell(self):
        for n in (2, 5, 17):
            values = [gamma(n, ell) for ell in range(2, 10)]
            assert all(v > 0 for v in values)
            assert values == sorted(values)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma(1, 3)
        with pytest.raises(ValueError):
            gamma(5, 1)


class TestSimpleBounds:
    def test_bound_s1_tight_on_complete_graph(self):
        assert bound_s1(4) == 4.0
        assert abs(lambda2(complete_graph(4)) - 4.0) <= 1e-9

    def test_bound_s1_tight_on_star(self):
        g = star_graph(4)
        lap = laplacian(g)
        # spectrum of the star on 4 nodes is {0, 1, 1, 4}, so lambda2 = 1 = s1
        for lam in (0, 1, 4):
            assert oracles.char_poly_value(lap, lam) == 0
        e = eccentricities(all_pairs_distances(g))
        assert count_s_ell(e, 1) == 1
        assert abs(lambda2(g) - bound_s1(1)) <= 1e-9

    def test_bound_s1_zero_on_path(self):
        e = eccentricities(all_pairs_distances(path_graph(4)))
        assert bound_s1(count_s_ell(e, 1)) == 0.0
        with pytest.raises(ValueError):
            bound_s1(-1)

    def test_bound_s2_over_n(self):
        assert bound_s2_over_n(2, 4) == 0.5
        with pytest.raises(ValueError):
            bound_s2_over_n(5, 4)
        with pytest.raises(ValueError, match=r"^bound_s2_over_n needs n >= 2, got 1$"):
            bound_s2_over_n(1, 1)


class TestBoundG1:
    def test_path4_reference(self):
        assert bound_g1(4, 3, 4) == 0.5
        assert lambda2(path_graph(4)) >= 0.5

    def test_reduces_to_s2_over_n_at_ell_two(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            g = erdos_renyi(n, float(rng.choice([0.2, 0.5, 0.8])), seed=rng)
            e = eccentricities(all_pairs_distances(g))
            s2 = count_s_ell(e, 2)
            got = bound_g1(g.n, 2, s2)
            expected = s2 / g.n
            assert abs(got - expected) <= 1e-15 * max(abs(expected), 1e-300)

    def test_zero_when_disconnected(self):
        e = eccentricities(all_pairs_distances(TWO_DISJOINT_EDGES))
        assert bound_g1(4, 3, count_s_ell(e, 3)) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bound_g1(4, 1, 2)
        with pytest.raises(ValueError):
            bound_g1(4, 2, 5)


class TestDiameterBounds:
    def test_g1_diam_reference_values(self):
        assert bound_g1_diam(4, 3) == 0.5
        assert bound_g1_diam(4, 2) == 1.0
        assert abs(lambda2(cycle_graph(4)) - 2.0) <= 1e-9  # C4 has diameter 2

    def test_g1_diam_complete_graph_case(self):
        # diameter 1 forces K_n, whose algebraic connectivity is exactly n
        for n in range(2, 12):
            assert bound_g1_diam(n, 1) == float(n)

    def test_mohar_reference_values(self):
        assert bound_mohar(4, 3) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert bound_mohar(4, 1) == 1.0
        assert bound_mohar(5, 2) == pytest.approx(0.4, rel=1e-15)
        assert lambda2(cycle_graph(5)) >= 0.4

    def test_dominates_mohar(self):
        for n in range(2, 80):
            for d in range(1, n):
                assert bound_g1_diam(n, d) >= bound_mohar(n, d)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="diameter undefined"):
            bound_g1_diam(4, UNREACHABLE)
        with pytest.raises(ValueError, match="diameter undefined"):
            bound_mohar(4, UNREACHABLE)
        with pytest.raises(ValueError, match="diameter undefined"):
            bound_lu(4, UNREACHABLE, 2)

    def test_bad_diameter_rejected(self):
        with pytest.raises(ValueError):
            bound_g1_diam(4, 0)
        with pytest.raises(ValueError):
            bound_mohar(4, 0)

    @pytest.mark.parametrize(
        "name, bound",
        [
            ("bound_g1_diam", bound_g1_diam),
            ("bound_mohar", bound_mohar),
            ("bound_lu", lambda n, d: bound_lu(n, d, 0)),
        ],
    )
    def test_domain_messages(self, name, bound):
        with pytest.raises(ValueError, match=f"^{name} needs n >= 2, got 1$"):
            bound(1, 1)
        with pytest.raises(ValueError, match="^diameter undefined for disconnected graph$"):
            bound(4, UNREACHABLE)
        with pytest.raises(ValueError, match="^diameter must be >= 1, got 0$"):
            bound(4, 0)


class TestBoundG2:
    def test_tight_on_path3(self):
        # s2=3, e(G^2)=3, m=2 -> 3/(1+2*1) = 1 = lambda2(P3)
        assert bound_g2(3, 2, 3, 2) == 1.0
        assert abs(lambda2(path_graph(3)) - 1.0) <= 1e-9

    def test_path4_reference(self):
        assert bound_g2(2, 2, 5, 3) == pytest.approx(0.4, rel=1e-15)

    def test_reduces_to_s1_at_ell_one(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            g = erdos_renyi(n, 0.4, seed=rng)
            e = eccentricities(all_pairs_distances(g))
            s1 = count_s_ell(e, 1)
            assert bound_g2(s1, 1, g.m, g.m) == bound_s1(s1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bound_g2(2, 0, 5, 3)
        with pytest.raises(ValueError):
            bound_g2(2, 2, 3, 5)


class TestBoundLu:
    def test_reference_values(self):
        assert bound_lu(3, 2, 1) == 1.0  # tight on P3
        assert bound_lu(4, 1, 0) == 4.0  # complete graph
        assert bound_lu(4, 3, 3) == pytest.approx(0.4, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bound_lu(1, 1, 0)
        with pytest.raises(ValueError):
            bound_lu(4, 2, -1)


class TestEvaluateAll:
    def test_path4_full_report(self):
        r = evaluate_all(path_graph(4), 3)
        assert (r.n, r.m, r.ell) == (4, 3, 3)
        assert (r.s1, r.s2, r.s_ell) == (0, 2, 4)
        assert r.diameter == 3
        assert (r.e_power, r.e_complement) == (6, 3)
        assert abs(r.lambda2 - (2.0 - math.sqrt(2.0))) <= 1e-9
        assert r.bounds["s1"] == 0.0
        assert r.bounds["s2_over_n"] == 0.5
        assert r.bounds["g1"] == 0.5
        assert r.bounds["g1_diam"] == 0.5
        assert r.bounds["mohar"] == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert r.bounds["g2"] == pytest.approx(0.4, rel=1e-15)
        assert r.bounds["lu"] == pytest.approx(0.4, rel=1e-15)
        for name in BOUND_NAMES:
            assert r.slacks[name] == r.lambda2 - r.bounds[name]
            assert not r.tight[name]

    def test_complete_graph_tightness(self):
        r = evaluate_all(complete_graph(4), 2)
        assert all(v <= r.lambda2 + 1e-9 * max(1.0, r.lambda2) for v in r.bounds.values())
        assert r.tight["s1"]
        assert r.bounds["s1"] == 4.0

    def test_disconnected_report(self):
        r = evaluate_all(TWO_DISJOINT_EDGES, 2)
        assert abs(r.lambda2) <= 1e-9
        assert r.diameter is None
        for name in ("s1", "s2_over_n", "g1", "g2"):
            assert r.bounds[name] == 0.0
        for name in ("g1_diam", "mohar", "lu"):
            assert r.bounds[name] is None
            assert r.slacks[name] is None
            assert name not in r.tight

    def test_ell_beyond_diameter_allowed(self):
        r = evaluate_all(path_graph(4), 9)
        assert r.s_ell == 4
        assert r.e_power == 6
        assert r.bounds["g1"] == bound_g1(4, 9, 4)

    def test_soundness_on_random_sample(self):
        rng = np.random.default_rng(5)
        graphs = [erdos_renyi(int(rng.integers(4, 13)), 0.45, seed=rng) for _ in range(25)]
        graphs += [random_tree(int(rng.integers(3, 11)), seed=rng) for _ in range(25)]
        for g in graphs:
            e = eccentricities(all_pairs_distances(g))
            ells = range(2, max(2, e[-1]) + 1) if e[-1] != UNREACHABLE else [2]
            for ell in ells:
                r = evaluate_all(g, ell)
                tol = 1e-9 * max(1.0, r.lambda2)
                for name, slack in r.slacks.items():
                    if slack is not None:
                        assert slack >= -tol, (g, ell, name)

    def test_tight_flag_definition(self):
        for g, ell in [(path_graph(3), 2), (complete_graph(5), 2), (cycle_graph(6), 3)]:
            r = evaluate_all(g, ell)
            cut = 1e-9 * max(1.0, r.lambda2)
            for name, slack in r.slacks.items():
                if slack is not None:
                    assert r.tight[name] == (slack <= cut)

    def test_hypercube_q10_closed_form(self, monkeypatch):
        # n = 1,024: the eigensolver's large-n path against lambda2(Q_k) = 2
        kernel, fractions = _kernels.jacobi_sweeps, []

        def recorded(a, basis):
            fractions.append(oracles.off_diagonal_fraction(a, basis))
            return kernel(a, basis)

        monkeypatch.setattr(_kernels, "jacobi_sweeps", recorded)
        r = evaluate_all(Graph.from_edges(1024, oracles.hypercube_edges(10)), 2)
        # one eigensolve, whose eigh basis meets the stopping rule 100 times over
        assert len(fractions) == 1 and fractions[0].max() <= 0.01 * _kernels.OFF_DIAG_REL_TOL
        assert abs(r.lambda2 - 2.0) <= 1e-12
        assert (r.m, r.diameter, r.e_power) == (1024 * 10 // 2, 10, 1024 * (10 + 45) // 2)
        assert (r.s1, r.s2, r.s_ell) == (0, 0, 0)  # every eccentricity is 10
        assert all(value <= r.lambda2 for value in r.bounds.values())
        assert r.bounds["mohar"] == 4.0 / (10 * 1024)

    def test_lambda2_matches_spectral_module(self):
        g = erdos_renyi(9, 0.5, seed=77)
        r = evaluate_all(g, 2)
        assert r.lambda2 == eigen_decompose(laplacian(g)).eigenvalues[1]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            evaluate_all(Graph.from_edges(1, []), 2)
        with pytest.raises(ValueError):
            evaluate_all(path_graph(3), 1)
