"""GraphAnalysis: each distance matrix, power graph and L(G) spectrum once per graph."""

import numpy as np
import pytest

import oracles
from eccbounds import _kernels, spectral
from eccbounds.bounds import GraphAnalysis, evaluate_all
from eccbounds.certify import certify_g1_matrix, certify_g2_matrix, check_chain
from eccbounds.graphs import Graph, erdos_renyi, path_graph
from eccbounds.metrics import UNREACHABLE, all_pairs_distances, power_graph
from eccbounds.spectral import lambda2, laplacian

TWO_DISJOINT_EDGES = Graph.from_edges(4, [(0, 1), (2, 3)])


class TestGraphAnalysis:
    def test_holds_the_pipeline_quantities(self):
        g = erdos_renyi(11, 0.35, seed=3)
        a = GraphAnalysis(g)
        assert a.graph is g and a.n == g.n and a.m == g.m
        np.testing.assert_array_equal(a.dist, all_pairs_distances(g))
        fw = oracles.floyd_warshall(g.adjacency_matrix())
        assert a.connected == bool(np.isfinite(fw).all())
        np.testing.assert_array_equal(a.laplacian, laplacian(g))
        assert a.lambda2 == lambda2(g)
        for ell in (1, 2, 3):
            assert a.power(ell) == power_graph(all_pairs_distances(g), ell)

    def test_power_and_spectrum_are_computed_once(self, monkeypatch):
        a = GraphAnalysis(path_graph(6))
        assert a.power(2) is a.power(2)
        assert a.power(3) is not a.power(2)
        assert a.laplacian is a.laplacian and not a.laplacian.flags.writeable
        first = a.lambda2
        monkeypatch.setattr(_kernels, "bfs_all_pairs", None)  # any new BFS or eigensolve fails
        oracles.patch_everywhere(monkeypatch, spectral.eigen_decompose_stack, None)
        assert a.lambda2 == first
        assert a.power(2) is a.power(2)

    def test_connected_matches_floyd_warshall(self):
        for seed in range(8):
            for p in (0.2, 0.5, 0.8):
                for n in range(2, 8):
                    g = erdos_renyi(n, p, seed=seed * 1000 + n)
                    assert GraphAnalysis(g).connected == oracles.connected(g.adjacency_matrix())

    def test_single_node_connected(self):
        assert GraphAnalysis(Graph.from_edges(1, [])).connected

    def test_disconnected(self):
        a = GraphAnalysis(TWO_DISJOINT_EDGES)
        assert not a.connected
        assert a.profile.diameter == UNREACHABLE
        assert a.lambda2 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_checks_agree_on_graph_and_analysis(self, ell):
        g = erdos_renyi(9, 0.45, seed=ell)
        a = GraphAnalysis(g)
        assert evaluate_all(a, ell) == evaluate_all(g, ell)
        if a.connected:
            assert certify_g1_matrix(a, ell) == certify_g1_matrix(g, ell)
            assert check_chain(a, ell) == check_chain(g, ell)
        assert certify_g2_matrix(a, ell) == certify_g2_matrix(g, ell)

    def test_errors_unchanged_for_an_analysis(self):
        tiny = GraphAnalysis(Graph.from_edges(1, []))
        with pytest.raises(ValueError, match="bound evaluation needs n >= 2"):
            evaluate_all(tiny, 2)
        with pytest.raises(ValueError, match="certificate needs n >= 2"):
            certify_g2_matrix(tiny, 2)
        with pytest.raises(ValueError, match="chain check needs n >= 2"):
            check_chain(tiny, 2)
        a = GraphAnalysis(TWO_DISJOINT_EDGES)
        with pytest.raises(ValueError, match="ell must be >= 2"):
            evaluate_all(a, 1)
        with pytest.raises(ValueError, match="ell must be >= 1"):
            certify_g2_matrix(a, 0)
        with pytest.raises(ValueError, match="certify_g1_matrix requires a connected graph"):
            certify_g1_matrix(a, 2)
        with pytest.raises(ValueError, match="check_chain requires a connected graph"):
            check_chain(a, 2)

