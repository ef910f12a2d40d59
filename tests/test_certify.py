"""PSD certificates for the two matrix inequalities and the spectral chain."""

import json

import numpy as np
import pytest

import oracles
from eccbounds import bounds, cli
from eccbounds.bounds import GraphAnalysis, bound_g1, gamma, solve_stacked
from eccbounds.certify import certify_g1_matrix, certify_g2_matrix, check_chain
from eccbounds.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    generate,
    path_graph,
    random_tree,
)
from eccbounds.metrics import all_pairs_distances, power_graph
from eccbounds.spectral import PSD, is_psd, laplacian, psd_tolerance

TWO_DISJOINT_EDGES = Graph.from_edges(4, [(0, 1), (2, 3)])


class TestCertifyG1:
    def test_path4_ell3(self):
        res = certify_g1_matrix(path_graph(4), 3)
        assert res.verdict == PSD
        # independent reconstruction of the certificate matrix: it is positive definite
        # off the constant vector, so the Cholesky proof settles it and its minimum
        # eigenvalue is exactly 0.0, with the tolerance an eigensolve would use
        m = gamma(4, 3) * laplacian(path_graph(4)) - laplacian(complete_graph(4))
        assert (res.method, res.min_eigenvalue) == ("cholesky", 0.0)
        assert is_psd(m).verdict == PSD
        assert res.tolerance == psd_tolerance(m)

    def test_complete_graphs_reduce_to_scaled_laplacian(self):
        for n in range(3, 7):
            for ell in (2, 3, 4):
                res = certify_g1_matrix(complete_graph(n), ell)
                assert res.verdict == PSD

    def test_cycle5_ell2_power_is_complete(self):
        g = cycle_graph(5)
        assert power_graph(all_pairs_distances(g), 2) == complete_graph(5)
        assert gamma(5, 2) == 5.0
        res = certify_g1_matrix(g, 2)
        assert res.verdict == PSD

    def test_random_graphs_all_psd(self):
        rng = np.random.default_rng(99)
        count = 0
        while count < 20:
            g = erdos_renyi(9, 0.45, seed=rng)
            try:
                res = certify_g1_matrix(g, int(rng.integers(2, 5)))
            except ValueError:
                continue  # disconnected draw
            assert res.verdict == PSD
            count += 1

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            certify_g1_matrix(TWO_DISJOINT_EDGES, 2)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            certify_g1_matrix(path_graph(4), 1)
        with pytest.raises(ValueError):
            certify_g1_matrix(Graph.from_edges(1, []), 2)


class TestCertifyG2:
    def test_path3_ell2_is_tight(self):
        res = certify_g2_matrix(path_graph(3), 2)
        assert res.verdict == PSD
        # the bound is tight on P3, so the matrix is singular: no proof, an eigensolve
        assert res.method == "eigen" and abs(res.min_eigenvalue) <= res.tolerance
        assert res == is_psd(3.0 * laplacian(path_graph(3)) - laplacian(complete_graph(3)))

    def test_ell_one_gives_zero_matrix(self):
        for g in (path_graph(5), cycle_graph(6), TWO_DISJOINT_EDGES):
            res = certify_g2_matrix(g, 1)
            assert res.verdict == PSD and res.method == "eigen"
            assert res.min_eigenvalue == 0.0
            assert res == is_psd(np.zeros((g.n, g.n)))

    def test_path4_ell2(self):
        g = path_graph(4)
        power = power_graph(all_pairs_distances(g), 2)
        assert power.m == 5
        res = certify_g2_matrix(g, 2)
        assert res.verdict == PSD
        m = 5.0 * laplacian(g) - laplacian(power)
        assert (res.method, res.min_eigenvalue, res.tolerance) == ("cholesky", 0.0, psd_tolerance(m))
        assert is_psd(m).verdict == PSD

    def test_disconnected_accepted(self):
        res = certify_g2_matrix(TWO_DISJOINT_EDGES, 3)
        assert res.verdict == PSD and res.method == "eigen"  # singular: L(G) and L(G^3) share two null vectors

    def test_random_graphs_all_psd(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = erdos_renyi(10, 0.35, seed=rng)
            for ell in (2, 3):
                assert certify_g2_matrix(g, ell).verdict == PSD

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            certify_g2_matrix(path_graph(4), 0)


class TestCheckChain:
    def test_path4_ell3(self):
        c = check_chain(path_graph(4), 3)
        assert c.gamma_val == 8.0
        assert abs(c.lambda2_power - 4.0) <= 1e-9  # cube of P4 is K4
        assert c.s1_power == 4 and c.s_ell == 4
        assert c.links_hold == (True, True, True)
        assert c.all_hold

    def test_complete_graph(self):
        c = check_chain(complete_graph(4), 2)
        assert c.all_hold
        assert c.s1_power == c.s_ell == 4

    @pytest.mark.parametrize("seed", range(6))
    def test_random_trees(self, seed):
        c = check_chain(random_tree(10, seed=seed), 3)
        assert c.all_hold

    def test_consistency_with_bound_g1(self):
        rng = np.random.default_rng(45)
        checked = 0
        while checked < 15:
            g = erdos_renyi(8, 0.5, seed=rng)
            try:
                c = check_chain(g, 3)
            except ValueError:
                continue
            expected = bound_g1(g.n, 3, c.s_ell)
            got = c.s_ell / c.gamma_val
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))
            checked += 1

    def test_link_tolerance_is_relative(self):
        # lambda2(P7^2) just above its floor: links must use the documented slack
        c = check_chain(path_graph(7), 2)
        assert c.lambda2_g >= c.lambda2_power / c.gamma_val - 1e-9 * max(1.0, c.lambda2_g)

    @pytest.mark.parametrize(("scale", "holds"), [(1.0, True), (1 + 1e-6, False)])
    def test_link1_fails_just_above_gamma_times_lambda2(self, monkeypatch, scale, holds):
        # negative control: lambda2(G^ell) = scale * gamma * lambda2(G) on P7 at ell 2;
        # a relative 1e-6 excess is far above link 1's slack of 1e-9 * max(1, lambda2(G))
        a = GraphAnalysis(path_graph(7))
        power = scale * gamma(7, 2) * a.lambda2
        monkeypatch.setattr(a, "power_lambda2", lambda ell: power)
        c = check_chain(a, 2)
        assert c.lambda2_power == power
        assert c.links_hold[0] == holds and c.links_hold[1:] == (True, True)

    @pytest.mark.parametrize("family", ["erdos_renyi", "random_tree"])
    def test_s1_power_matches_oracle(self, family):
        # s1(G^ell) from Floyd-Warshall eccentricities of the brute-force power
        # graph, for every ell up to diameter + 1 (where G^ell = K_n)
        rng = np.random.default_rng(31)
        complete = partial = 0
        for n in range(2, 21):
            for _ in range(2):
                g = generate(family, n, p=0.35, seed=rng)
                adj = g.adjacency_matrix().astype(np.int64)
                fw = oracles.floyd_warshall(adj)
                if not np.isfinite(fw).all():
                    continue
                for ell in range(2, int(fw.max()) + 2):
                    ecc = oracles.eccentricities(oracles.power_adjacency(adj, ell))
                    expected = int(np.count_nonzero(ecc <= 1))
                    c = check_chain(g, ell)
                    assert c.s1_power == expected, (n, ell)
                    assert c.links_hold[2]
                    complete += expected == n
                    partial += 0 < expected < n
        assert complete >= 20 and partial >= 5

    @pytest.mark.parametrize(
        ("g", "ell", "edge"), [(path_graph(4), 3, (0, 1)), (path_graph(5), 2, (0, 2))]
    )
    def test_link3_fails_when_power_graph_drops_an_edge(self, monkeypatch, g, ell, edge):
        # negative control: an edge missing at a universal node of G^ell
        a = GraphAnalysis(g)
        full = a.power(ell)
        assert full.degrees()[edge[1]] == g.n - 1 and edge in full.edges()
        broken = Graph.from_edges(g.n, [e for e in full.edges() if e != edge])
        monkeypatch.setattr(a, "power", lambda _ell: broken)
        c = check_chain(a, ell)
        assert c.s1_power < c.s_ell
        assert c.links_hold == (True, True, False)

    @pytest.mark.parametrize(
        ("g", "ell", "edge"), [(path_graph(4), 3, (0, 1)), (path_graph(5), 2, (0, 2))]
    )
    def test_link3_fails_when_a_chunk_mask_drops_an_edge(self, monkeypatch, capsys, g, ell, edge):
        # negative control on the solve chunk's route: G^ell's mask row loses an edge at a universal
        # node, so the counts the chunk fills miss it; link 3 fails, and a verify campaign reports it
        u, v = edge
        original = bounds.power_adjacency

        def dropped(dist, ells):
            masks = original(dist, ells)
            for mask, k in zip(masks, ells):
                if k == ell:
                    mask[u, v] = mask[v, u] = False
            return masks

        monkeypatch.setattr(bounds, "power_adjacency", dropped)
        a = GraphAnalysis(g)
        solve_stacked([(a, [ell])])
        c = check_chain(a, ell)
        assert c.s1_power < c.s_ell
        assert c.links_hold == (True, True, False)
        argv = ["verify", "--family", "path", "--n", str(g.n), "--trials", "1", "--ell", str(ell)]
        assert cli.main(argv) == 1
        details = json.loads(capsys.readouterr().out)["violation_details"]
        assert ("chain_violation", ell) in {(d["kind"], d["ell"]) for d in details}

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            check_chain(TWO_DISJOINT_EDGES, 2)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            check_chain(path_graph(4), 1)
