"""GraphAnalysis: each distance matrix, power count and L(G) spectrum once per graph, and no matrix held."""

import math

import numpy as np
import pytest

import oracles
from eccbounds import _kernels, bounds, metrics, spectral
from eccbounds.bounds import GraphAnalysis, evaluate_all, solve_stacked
from eccbounds.certify import certify_g1_matrix, certify_g2_matrix, check_chain
from eccbounds.graphs import MAX_NODES, Graph, complete_graph, erdos_renyi, path_graph
from eccbounds.metrics import UNREACHABLE, all_pairs_distances, count_s_ell, power_adjacency, power_graph
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
        assert a.lambda2 == lambda2(g)
        for ell in (1, 2, 3):
            assert a.power(ell) == power_graph(all_pairs_distances(g), ell)

    @pytest.mark.parametrize("g", [erdos_renyi(11, 0.35, seed=3), path_graph(7), TWO_DISJOINT_EDGES, Graph.from_edges(3, [])])
    def test_power_laplacian_is_bitwise_the_power_graphs(self, monkeypatch, g):
        # read from the distance mask, not from a Graph: the same bits, -0.0 off the edges included
        a = GraphAnalysis(g)
        kept, stack = chunk_laplacians(monkeypatch, [(a, ell) for ell in (1, 2, 3, 6)])
        for (_, ell), lap in zip(kept, stack):
            expected = laplacian(power_graph(all_pairs_distances(g), ell))
            assert lap.dtype == expected.dtype and lap.tobytes() == expected.tobytes()
        assert a._powers == {} and a._counts == {}  # no power graph was built for them

    def test_power_and_spectrum_are_computed_once(self, monkeypatch):
        a = GraphAnalysis(path_graph(6))
        assert a.power(2) is a.power(2)
        assert a.power(3) is not a.power(2)
        first = a.lambda2
        monkeypatch.setattr(_kernels, "bfs_all_pairs", None)  # any new BFS or eigensolve fails
        oracles.patch_everywhere(monkeypatch, spectral.eigen_decompose_stack, None)
        assert a.lambda2 == first
        assert a.power(2) is a.power(2)

    @pytest.mark.parametrize("route", ["batch", "lone"])
    def test_holds_no_matrix_after_its_checks(self, route):
        # the Laplacians and masks of a solve or a lone check are dropped once their results are read
        g = erdos_renyi(10, 0.4, seed=2)
        a = GraphAnalysis.batch([g])[0] if route == "batch" else GraphAnalysis(g)
        assert a.connected
        if route == "batch":
            solve_stacked([(a, [2, 3])])
        else:
            certify_g1_matrix(a, 2)
            check_chain(a, 3)
        held = [value for value in vars(a).values() if not isinstance(value, dict)]
        held += [value for memo in vars(a).values() if isinstance(memo, dict) for value in memo.values()]
        matrices = [x for x in held if isinstance(x, np.ndarray) and x.dtype.kind in "fb" and x.shape[-2:] == (10, 10)]
        assert matrices == []
        assert a._lambda2s and a._certificates  # the results are kept

    def test_one_mask_per_ell_serves_power_and_power_laplacian(self, monkeypatch):
        # each mask 1 <= d <= ell is built once where it is read: a solve chunk's one broadcast serves
        # the counts of G^ell, the proofs and the eigensolve; the checks after a solve read results only
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

        a = GraphAnalysis.batch([erdos_renyi(10, 0.4, seed=2)])[0]
        assert a.connected
        solve_stacked([(a, [2, 3])])
        assert built == [[1, 2, 3]]
        check(a)
        assert len(built) == 1
        assert a._powers == {} and sorted(a._counts) == [2, 3] and sorted(a._lambda2s) == [1, 2, 3]
        # a lone analysis builds them on first use: G^ell for evaluate_all, L(G) and L(G^ell) per proof (the
        # g2 one also fills the counts that check_chain reads), L(G^ell) for its lambda2
        del built[:]
        check(GraphAnalysis(erdos_renyi(10, 0.4, seed=2)))
        assert sorted(built) == [[1, 2], [1, 2], [1, 3], [1, 3], [2], [2], [3], [3]]

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
        assert a.diameter == UNREACHABLE and a.eccentricities == [UNREACHABLE] * 4
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

    def test_every_check_is_finite_at_the_ell_limit(self):
        # the derivation of MAX_ELL: every entry of either certificate matrix is below ell n^3, so
        # its squared Frobenius norm is below ell^2 n^8, finite at n = MAX_NODES
        assert math.isfinite(float(bounds.MAX_ELL * MAX_NODES**4) ** 2)
        a = GraphAnalysis(path_graph(5))
        report = evaluate_all(a, bounds.MAX_ELL)
        assert all(math.isfinite(v) for v in report.bounds.values() if v is not None)
        for cert in (certify_g1_matrix(a, bounds.MAX_ELL), certify_g2_matrix(a, bounds.MAX_ELL)):
            assert cert.verdict == spectral.PSD and math.isfinite(cert.tolerance)
        assert check_chain(a, bounds.MAX_ELL).all_hold

    def test_every_check_refuses_an_ell_above_the_limit(self):
        a = GraphAnalysis(path_graph(5))
        for check in (evaluate_all, certify_g1_matrix, certify_g2_matrix, check_chain):
            with pytest.raises(ValueError, match=rf"^ell must be <= 1e\+130, got {bounds.MAX_ELL + 1}$"):
                check(a, bounds.MAX_ELL + 1)



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
            expected = oracles.sorted_eccentricities(g.adjacency_matrix(), UNREACHABLE)
            assert a.eccentricities == lone.eccentricities == expected.tolist()
            assert a.diameter == lone.diameter == a.eccentricities[-1]
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


def every_graph(n: int) -> np.ndarray:
    """Every labelled graph on n nodes as one adjacency stack: graph c has upper pair k iff bit k of c is set."""
    us, vs = np.triu_indices(n, 1)
    bits = (np.arange(1 << us.size)[:, None] >> np.arange(us.size)) & 1 == 1
    adj = np.zeros((len(bits), n, n), dtype=bool)
    adj[:, us, vs] = bits
    return adj | adj.transpose(0, 2, 1)


def every_analysis(n: int) -> tuple[np.ndarray, list[GraphAnalysis]]:
    """``every_graph(n)`` and its analyses, one ``GraphAnalysis.batch`` of one ``Graph.from_adjacency`` a matrix."""
    adj = every_graph(n)
    return adj, GraphAnalysis.batch([Graph.from_adjacency(m) for m in adj])


class TestEveryGraphUpToSixNodes:
    """All 33,867 labelled graphs on 1..6 nodes, connected and disconnected, as one ``GraphAnalysis.batch`` per n."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_against_floyd_warshall(self, n):
        # distances, edge counts, connectivity, sorted eccentricities, diameter and s_ell for ell in 1..n;
        # then one solve chunk of only the "power" items, every ell in 1..n of every graph, whose counts
        # (e(G^ell), s1(G^ell)) are those of the brute-force power graph, with no G^ell built
        adj, batch = every_analysis(n)
        assert len(batch) == 2 ** (n * (n - 1) // 2)
        fw = oracles.floyd_warshall(adj)
        reach = np.isfinite(fw)
        assert np.array_equal(np.array([a.dist for a in batch]), np.where(reach, fw, UNREACHABLE))
        assert [a.m for a in batch] == (adj.sum(axis=(1, 2)) // 2).tolist()
        assert [a.connected for a in batch] == reach.all(axis=(1, 2)).tolist()
        ecc = oracles.sorted_eccentricities(adj, UNREACHABLE)
        assert np.array_equal(np.array([a.eccentricities for a in batch]), ecc)
        assert [a.diameter for a in batch] == ecc[:, -1].tolist()
        ells = range(1, n + 1)
        s_ell = (oracles.eccentricities(adj)[:, :, None] <= np.array(ells)).sum(axis=1)  # inf counts nowhere
        assert [[count_s_ell(a.eccentricities, ell) for ell in ells] for a in batch] == s_ell.tolist()
        bounds._settle([(a, ell, "power") for a in batch for ell in ells])
        assert all(a._powers == {} and a._lambda2s == {} for a in batch)
        counts = np.array([[a._counts[ell] for ell in ells] for a in batch])
        assert np.array_equal(counts, np.stack([np.stack(oracles.power_counts(adj, ell), axis=-1) for ell in ells], 1))


def lone_laplacian(a: GraphAnalysis, ell: int) -> np.ndarray:
    """The reference for a row of a solve chunk's Laplacians: L(G^ell) of a alone, from its own distance matrix."""
    return adjacency_laplacian(power_adjacency(a.dist, ell))


def chunk_laplacians(monkeypatch, items) -> tuple[list, np.ndarray]:
    """The one Laplacian stack a solve chunk builds to eigensolve the lambda2s of the distinct (analysis, ell)
    items, with the items it holds, in order: all but those whose G^ell is complete at ell >= 2 (by
    Floyd-Warshall), which get lambda2 exactly n and no row."""
    original, built = bounds.adjacency_laplacian, []
    with monkeypatch.context() as patch:
        patch.setattr(bounds, "adjacency_laplacian", lambda masks: built.append(original(masks)) or built[-1])
        bounds._settle([(a, ell, "lambda2") for a, ell in items])
    closed = [ell >= 2 and oracles.complete_power(a.graph.adjacency_matrix(), ell) for a, ell in items]
    for (a, ell), c in zip(items, closed):
        assert not c or a._lambda2s[ell] == oracles.lambda2_complete(a.n)
    (stack,) = built
    kept = [item for item, c in zip(items, closed) if not c]
    assert len(stack) == len(kept)
    return kept, stack


def assert_rows_are_lone_builds(items, stack):
    """Each row of ``stack`` is bitwise its own item's lone build, signed zeros included, and has the edges
    1 <= distance <= ell of that item's distance matrix: -1.0 on them, -0.0 off them, row counts on the diagonal."""
    assert stack.dtype == np.float64 and stack.shape == (len(items), *items[0][0].dist.shape)
    for (a, ell), lap in zip(items, stack):
        lone = lone_laplacian(a, ell)
        assert lap.tobytes() == lone.tobytes()
        mask = (a.dist >= 1) & (a.dist <= ell)
        off_diagonal = ~np.eye(a.n, dtype=bool)
        assert np.array_equal(lap[off_diagonal] == -1.0, mask[off_diagonal])
        assert np.signbit(lap[off_diagonal]).all() and np.array_equal(np.diag(lap), mask.sum(axis=1))


class TestPrepare:
    """How a solve chunk prepares its matrices: ``_settle`` builds the L(G^ell) of every (analysis, ell)
    key it reads from one mask broadcast, each row bitwise its analysis's lone build."""

    ELLS = [2, 3, 5, 9, 10**20]

    @pytest.mark.parametrize("g", [
        erdos_renyi(10, 0.4, seed=2), erdos_renyi(10, 0.3, seed=4), path_graph(10),
        TWO_DISJOINT_EDGES, Graph.from_edges(3, []),
    ], ids=["er-connected", "er-disconnected", "path", "two-edges", "edgeless"])
    @pytest.mark.parametrize("route", ["lone", "batch"])
    def test_each_broadcast_row_is_its_lone_build(self, monkeypatch, g, route):
        a = GraphAnalysis(g) if route == "lone" else GraphAnalysis.batch([path_graph(g.n), g])[1]
        other = GraphAnalysis(complete_graph(g.n))
        items = [(member, ell) for ell in [1, *self.ELLS] for member in (a, other)]
        assert_rows_are_lone_builds(*chunk_laplacians(monkeypatch, items))
        # beyond every distance, G^ell is the complete graph on each component
        assert np.array_equal(lone_laplacian(a, 10**20), lone_laplacian(a, g.n))

    def test_a_chunk_mixes_distance_types_connectivity_and_huge_ells(self, monkeypatch):
        # a lone int8 analysis beside the members of an int16 batch, one of them disconnected
        lone = GraphAnalysis(erdos_renyi(130, 0.05, seed=2))
        split = Graph.from_edges(130, [(i, i + 1) for i in range(129) if i != 64])
        batch = GraphAnalysis.batch([path_graph(130), split])
        assert lone.dist.dtype == np.int8 and batch[0].dist.dtype == np.int16
        assert lone.connected and batch[0].connected and not batch[1].connected
        items = [(a, ell) for ell in (1, 2, 64, 127, 128, 129, 10**20) for a in (lone, *batch)]
        assert_rows_are_lone_builds(*chunk_laplacians(monkeypatch, items))
        full = laplacian(complete_graph(130))
        for a in (lone, batch[0]):
            assert np.array_equal(lone_laplacian(a, 10**20), full)

    @pytest.mark.parametrize("members", [1, 2, 910])
    def test_every_filled_power_graph_is_its_lone_build(self, monkeypatch, members):
        # the counts e(G^ell) and s1(G^ell) a solve fills come from its chunks' masks, with no G^ell built,
        # and are those of the lone power_graph and of the Floyd-Warshall oracle, as Python ints
        monkeypatch.setattr(bounds, "_STACK_BYTES", members * 8 * 10 * 10)
        monkeypatch.setattr(Graph, "from_adjacency", None)
        split = Graph.from_edges(10, [(i, i + 1) for i in range(9) if i != 4])
        analyses = GraphAnalysis.batch([erdos_renyi(10, 0.4, seed=2), split, complete_graph(10), path_graph(10)])
        analyses.append(GraphAnalysis(erdos_renyi(10, 0.3, seed=4)))  # a lone, disconnected analysis
        assert [a.connected for a in analyses] == [True, False, True, True, False]
        ells = [1, 2, 3, 10**20]
        solve_stacked([(a, ells) for a in analyses])
        monkeypatch.undo()
        for a in analyses:
            assert a._powers == {} and list(a._counts) == ells
            for ell in ells:
                lone = power_graph(a.dist, ell)
                expected = tuple(map(int, oracles.power_counts(a.graph.adjacency_matrix(), ell)))
                assert a._counts[ell] == (lone.m, int((lone.degrees() == a.n - 1).sum())) == expected
                assert all(type(count) is int for count in a._counts[ell])

    def test_one_broadcast_per_analysis_and_none_for_built_ells(self, monkeypatch):
        # one analysis's solve is one broadcast, which its proofs and its eigensolve share; a repeated
        # or settled ell adds no row, and a later solve builds the new ells and the L(G) its proofs read
        original, built = bounds.adjacency_laplacian, []
        monkeypatch.setattr(bounds, "adjacency_laplacian", lambda adj: built.append(adj.shape) or original(adj))
        a = GraphAnalysis(erdos_renyi(10, 0.4, seed=2))
        assert a.connected
        solve_stacked([(a, [3, 2, 3])])
        assert built == [(3, 10, 10)]
        solve_stacked([(a, [2, 3]), (a, [3])])
        assert len(built) == 1
        solve_stacked([(a, [2, 4, 5])])
        assert built[1:] == [(3, 10, 10)]  # L(G^4) and L(G^5), then L(G) for the proofs

    def test_one_broadcast_per_chunk(self, monkeypatch):
        original, built = bounds.adjacency_laplacian, []
        monkeypatch.setattr(bounds, "adjacency_laplacian", lambda adj: built.append(adj.shape) or original(adj))
        a = GraphAnalysis.batch([erdos_renyi(10, 0.4, seed=2)])[0]
        assert a.connected
        # L(G), L(G^2) and L(G^3), read by the 4 proofs and the eigensolve
        solve_stacked([(a, [2, 3])])
        assert built == [(3, 10, 10)]
        for ell in (2, 3):
            evaluate_all(a, ell), certify_g1_matrix(a, ell), certify_g2_matrix(a, ell), check_chain(a, ell)
        assert len(built) == 1  # every check reads a result
        # chunks of 2 keys: L(G) and L(G^2), then L(G^3) and, for its proofs, L(G) again
        monkeypatch.setattr(bounds, "_STACK_BYTES", 2 * 8 * 10 * 10)
        del built[:]
        solve_stacked([(GraphAnalysis(a.graph), [2, 3])])
        assert built == [(2, 10, 10), (2, 10, 10)]
        # a lone miss is a chunk of one; G^3 is complete (diameter 3), so its lambda2 is exactly n and
        # its chunk builds a mask and no Laplacian
        del built[:]
        b = GraphAnalysis(a.graph)
        certify_g2_matrix(b, 2), b.power_lambda2(2)
        assert built == [(2, 10, 10), (1, 10, 10)]
        assert oracles.complete_power(a.graph.adjacency_matrix(), 3)
        assert b.power_lambda2(3) == 10.0 and len(built) == 2
