"""GraphAnalysis: each distance matrix, power graph and L(G) spectrum once per graph."""

import numpy as np
import pytest

import oracles
from eccbounds import _kernels, metrics, spectral
from eccbounds.bounds import GraphAnalysis, evaluate_all, solve_stacked
from eccbounds.certify import certify_g1_matrix, certify_g2_matrix, check_chain
from eccbounds.graphs import Graph, erdos_renyi, path_graph
from eccbounds.metrics import UNREACHABLE, all_pairs_distances, power_adjacency, power_graph
from eccbounds.spectral import adjacency_laplacian, lambda2, laplacian

TWO_DISJOINT_EDGES = Graph.from_edges(4, [(0, 1), (2, 3)])


class TestGraphAnalysis:
    def test_holds_the_pipeline_quantities(self):
        g = erdos_renyi(11, 0.35, seed=3)
        a = GraphAnalysis(g)
        assert a.graph is g and a.n == g.n and a.m == g.m
        np.testing.assert_array_equal(a.dist, all_pairs_distances(g))
        fw = oracles.floyd_warshall(g.adjacency_matrix())
        assert a.connected == bool(np.isfinite(fw).all())
        assert a.power_laplacian(1).tobytes() == laplacian(g).tobytes()  # L(G^1) is bitwise L(G)
        assert a.lambda2 == lambda2(g)
        for ell in (1, 2, 3):
            assert a.power(ell) == power_graph(all_pairs_distances(g), ell)

    @pytest.mark.parametrize("g", [erdos_renyi(11, 0.35, seed=3), path_graph(7), TWO_DISJOINT_EDGES, Graph.from_edges(3, [])])
    def test_power_laplacian_is_bitwise_the_power_graphs(self, g):
        # read from the distance mask, not from a Graph: the same bits, -0.0 off the edges included
        a = GraphAnalysis(g)
        for ell in (1, 2, 3, 6):
            lap = a.power_laplacian(ell)
            expected = laplacian(power_graph(all_pairs_distances(g), ell))
            assert lap.dtype == expected.dtype and lap.tobytes() == expected.tobytes()
            assert a.power_laplacian(ell) is lap and not lap.flags.writeable
        assert a._powers == {}  # no power graph was built for them

    def test_power_and_spectrum_are_computed_once(self, monkeypatch):
        a = GraphAnalysis(path_graph(6))
        assert a.power(2) is a.power(2)
        assert a.power(3) is not a.power(2)
        assert a.power_laplacian(1) is a.power_laplacian(1) and not a.power_laplacian(1).flags.writeable
        first = a.lambda2
        monkeypatch.setattr(_kernels, "bfs_all_pairs", None)  # any new BFS or eigensolve fails
        oracles.patch_everywhere(monkeypatch, spectral.eigen_decompose_stack, None)
        assert a.lambda2 == first
        assert a.power(2) is a.power(2)

    def test_one_mask_per_ell_serves_power_and_power_laplacian(self, monkeypatch):
        original, built = metrics.power_adjacency, []
        oracles.patch_everywhere(
            monkeypatch, original, lambda dist, ell: built.append(np.ravel(ell).tolist()) or original(dist, ell)
        )

        def check(a):
            for ell in (2, 3):
                evaluate_all(a, ell)
                certify_g1_matrix(a, ell)
                certify_g2_matrix(a, ell)
                check_chain(a, ell)

        # through the batch entry points, one broadcast builds every mask that the solve and the checks read
        a = GraphAnalysis.batch([erdos_renyi(10, 0.4, seed=2)])[0]
        assert a.connected
        solve_stacked([(a, [2, 3])])
        assert built == [[1, 2, 3]]
        check(a)
        assert built == [[1, 2, 3]]
        # L(G) = L(G^1) for the certificates, and G^ell and L(G^ell) for each ell, from three masks
        assert sorted(a._powers) == [2, 3] and sorted(a._power_laplacians) == [1, 2, 3]
        # a lone analysis builds each mask on its first use, still once
        del built[:]
        check(GraphAnalysis(erdos_renyi(10, 0.4, seed=2)))
        assert sorted(built) == [[1], [2], [3]]

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



class TestBatch:
    """``GraphAnalysis.batch``: one search for graphs of one order, each analysis equal to a lone one."""

    GRAPHS = [erdos_renyi(10, 0.3, seed=seed) for seed in range(6)] + [path_graph(10), Graph.from_edges(10, [])]

    def test_each_member_is_its_lone_analysis(self):
        batch = GraphAnalysis.batch(self.GRAPHS)
        assert len(batch) == len(self.GRAPHS)
        for g, a in zip(self.GRAPHS, batch):
            lone = GraphAnalysis(g)
            assert a.graph is g and (a.n, a.m, a.connected) == (lone.n, lone.m, lone.connected)
            assert a.dist.dtype == lone.dist.dtype and a.dist.tobytes() == lone.dist.tobytes()
            assert not a.dist.flags.writeable
            assert a.profile.ecc.tobytes() == lone.profile.ecc.tobytes()
            assert a.profile.diameter == lone.profile.diameter
            for ell in (2, 3):
                assert evaluate_all(a, ell) == evaluate_all(lone, ell)

    def test_one_search_for_the_batch(self, monkeypatch):
        search, members = _kernels.bfs_all_pairs, []
        monkeypatch.setattr(_kernels, "bfs_all_pairs", lambda *args: members.append(len(args[0]) - 1) or search(*args))
        GraphAnalysis.batch(self.GRAPHS)
        assert members == [len(self.GRAPHS) * 10]

    def test_refuses_mixed_orders(self):
        with pytest.raises(ValueError, match="one order"):
            GraphAnalysis.batch([path_graph(4), path_graph(5)])


class TestPrepare:
    """``GraphAnalysis.prepare``: one broadcast builds the masks and L(G^ell) of 1 and of every ell."""

    ELLS = [2, 3, 5, 9]

    @pytest.mark.parametrize("g", [
        erdos_renyi(10, 0.4, seed=2), erdos_renyi(10, 0.3, seed=4), path_graph(10),
        TWO_DISJOINT_EDGES, Graph.from_edges(3, []),
    ], ids=["er-connected", "er-disconnected", "path", "two-edges", "edgeless"])
    @pytest.mark.parametrize("route", ["lone", "batch"])
    def test_each_broadcast_row_is_its_lone_build(self, g, route):
        a = GraphAnalysis(g) if route == "lone" else GraphAnalysis.batch([path_graph(g.n), g])[1]
        a.prepare(self.ELLS)
        ells = [1, *self.ELLS] if a.connected else [1]
        assert sorted(a._masks) == sorted(a._power_laplacians) == ells
        off_diagonal = ~np.eye(g.n, dtype=bool)
        for ell in ells:
            mask, lap = a._mask(ell), a.power_laplacian(ell)
            assert mask.dtype == bool and np.array_equal(mask, (a.dist >= 1) & (a.dist <= ell))
            lone = adjacency_laplacian(power_adjacency(a.dist, ell))
            assert lap.dtype == lone.dtype and lap.tobytes() == lone.tobytes()  # signed zeros too
            assert np.signbit(lap[off_diagonal & ~mask]).all() and not lap.flags.writeable

    def test_one_broadcast_per_analysis_and_none_for_built_ells(self, monkeypatch):
        original, laplacians = adjacency_laplacian, []
        oracles.patch_everywhere(monkeypatch, original, lambda adj: laplacians.append(adj.shape) or original(adj))
        a = GraphAnalysis(erdos_renyi(10, 0.4, seed=2))
        assert a.connected
        a.prepare([3, 2, 3])
        assert laplacians == [(3, 10, 10)]
        a.prepare([2, 3])
        a.prepare([1])
        assert laplacians == [(3, 10, 10)]
        a.prepare([2, 4, 5])
        assert laplacians == [(3, 10, 10), (2, 10, 10)]
        # a mask built alone is kept, and its Laplacian is built from it on first use
        a._mask(6)
        a.prepare([6])
        assert 6 not in a._power_laplacians and a.power_laplacian(6).shape == (10, 10)
