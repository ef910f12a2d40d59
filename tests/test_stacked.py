"""The stacked eigensolver core, the stacked solve of GraphAnalysis and the campaign's one solve per batch."""

import numpy as np
import pytest

import oracles
from eccbounds import _kernels, bounds, cli, spectral
from eccbounds.bounds import GraphAnalysis, gamma, solve_stacked
from eccbounds.cli import CampaignConfig, run_campaign, summary_json
from eccbounds.certify import certify_g1_matrix, certify_g2_matrix, check_chain
from eccbounds.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    random_tree,
    star_graph,
)
from eccbounds.metrics import power_adjacency
from eccbounds.spectral import (
    PSD,
    CertificateResult,
    JacobiConvergenceError,
    adjacency_laplacian,
    eigen_decompose,
    eigen_decompose_stack,
    is_psd,
    laplacian,
)


@pytest.fixture
def solves(monkeypatch):
    """(stack, summaries) of every ``eigen_decompose_stack`` call, through every module importing it."""
    original = spectral.eigen_decompose_stack
    calls = []

    def recorded(stack):
        summaries = original(stack)
        calls.append((stack, summaries))
        return summaries

    oracles.patch_everywhere(monkeypatch, original, recorded)
    return calls


def graphs_of_order(n: int) -> list[Graph]:
    """Connected and disconnected graphs on n nodes: path, star, complete, ER, and two halves."""
    graphs = [path_graph(n), star_graph(n), complete_graph(n), Graph.from_edges(n, [])]
    graphs += [erdos_renyi(n, p, seed=n) for p in (0.15, 0.5)]
    if n >= 4:
        half = n // 2
        graphs.append(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1) if i + 1 != half]))
    return graphs


def lone_laplacian(a: GraphAnalysis, ell: int) -> np.ndarray:
    """L(G^ell) of a alone, from its own distance matrix: what each solve chunk builds for (a, ell)."""
    return adjacency_laplacian(power_adjacency(a.dist, ell))


def members_of_order(n: int) -> list[np.ndarray]:
    """Laplacians, the two certificate matrices at ell = 2 and a power Laplacian, of each graph."""
    members = []
    for g in graphs_of_order(n):
        a = GraphAnalysis(g)
        coeff = float(1 + 2 * (a.power(2).m - a.m))
        lap, power = lone_laplacian(a, 1), lone_laplacian(a, 2)
        members += [lap, power, gamma(n, 2) * lap - power, coeff * lap - power]
    return members


def assert_agrees_with_is_psd(cert: CertificateResult, m: np.ndarray) -> None:
    """An eigensolved certificate is ``is_psd(m)``; a proved one reads exactly 0.0, with is_psd's
    tolerance, and is_psd says PSD too."""
    direct = is_psd(m)
    if cert.method == "cholesky":
        assert (cert.min_eigenvalue, cert.tolerance, cert.verdict) == (0.0, direct.tolerance, PSD)
        assert direct.verdict == PSD
    else:
        assert cert == direct


def memos(a: GraphAnalysis) -> tuple[dict, dict]:
    """An analysis's two result memos: lambda2(G^ell) by ell and the certificates by (kind, ell)."""
    return a._lambda2s, a._certificates


def closed_form(a: GraphAnalysis, ell: int) -> bool:
    """A solve gives lambda2(G^ell) exactly n, with no eigensolve: ell >= 2 and G^ell complete (by Floyd-Warshall)."""
    return ell >= 2 and oracles.complete_power(a.graph.adjacency_matrix(), ell)


def assert_same_summary(stacked, alone):
    assert np.array_equal(stacked.eigenvalues, alone.eigenvalues)
    assert np.array_equal(stacked.vectors, alone.vectors)


class TestStackedCore:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 12, 17, 25, 40])
    def test_stacked_equals_per_matrix_bitwise(self, n):
        members = members_of_order(n)
        stacked = eigen_decompose_stack(np.stack(members))
        assert len(stacked) == len(members)
        for a, s in zip(members, stacked):
            alone = eigen_decompose(a)
            assert_same_summary(s, alone)
            assert is_psd(a).min_eigenvalue == s.eigenvalues[0]
            assert not s.eigenvalues.flags.writeable and not s.vectors.flags.writeable

    def test_members_match_the_oracle(self):
        members = members_of_order(12)
        for a, s in zip(members, eigen_decompose_stack(np.stack(members))):
            scale = max(1.0, oracles.inf_norm(a))
            assert np.allclose(s.eigenvalues, oracles.sorted_eigenvalues(a), rtol=0, atol=1e-10 * scale)
            residual, orthogonality = oracles.eigen_quality(a, s.eigenvalues, s.vectors)
            assert residual <= 1e-12 and orthogonality <= 1e-12

    def test_non_symmetric_member_raises(self):
        members = [laplacian(path_graph(4)), laplacian(cycle_graph(4))]
        members[1][0, 1] += 1e-12
        with pytest.raises(ValueError, match="not exactly symmetric"):
            eigen_decompose_stack(np.stack(members))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4), (1, 2, 2, 2)])
    def test_rejects_anything_but_a_stack_of_squares(self, shape):
        with pytest.raises(ValueError, match="expected a stack of square matrices"):
            eigen_decompose_stack(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_member_raises(self, bad):
        # inf == inf passes the symmetry test; NaN would be named asymmetric
        members = [laplacian(path_graph(3)), laplacian(cycle_graph(3))]
        members[1][0, 1] = members[1][1, 0] = bad
        with pytest.raises(ValueError, match=r"^matrix has a non-finite entry \(inf or NaN\)$"):
            eigen_decompose_stack(np.stack(members))

    def test_empty_stack_gives_no_summaries(self):
        assert eigen_decompose_stack(np.zeros((0, 3, 3))) == []

    def test_failed_rule_names_the_member(self, monkeypatch):
        # a zero tolerance passes only the diagonal member, whose basis is the identity
        monkeypatch.setattr(_kernels, "OFF_DIAG_REL_TOL", 0.0)
        stack = np.stack([np.diag([1.0, 2.0, 3.0]), laplacian(path_graph(3))])
        with pytest.raises(JacobiConvergenceError, match=r"^member 1 misses the stopping rule \(n=3, .*target 0\.000e\+00\)$"):
            eigen_decompose_stack(stack)

    def test_eigen_decompose_makes_one_stack_of_one(self, solves):
        eigen_decompose(laplacian(path_graph(5)))
        assert [stack.shape for stack, _ in solves] == [(1, 5, 5)]


def campaign_graphs() -> list[Graph]:
    return [erdos_renyi(12, 0.3, seed=s) for s in range(8)] + [random_tree(15, seed=1), cycle_graph(9)]


class TestGraphAnalysisSolve:
    @pytest.mark.parametrize("g", campaign_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
    def test_lambda2_after_solve_equals_a_lone_solve(self, g):
        a = GraphAnalysis(g)
        solve_stacked([(a, range(2, 6))])
        assert a.lambda2 == GraphAnalysis(g).lambda2

    @pytest.mark.parametrize("g", campaign_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
    def test_memo_equals_fresh_checks(self, g):
        a = GraphAnalysis(g)
        ells = range(2, 5)
        solve_stacked([(a, ells)])
        if not a.connected:
            return
        for ell in ells:
            assert certify_g1_matrix(a, ell) == certify_g1_matrix(g, ell)
            assert certify_g2_matrix(a, ell) == certify_g2_matrix(g, ell)
            lap, power = lone_laplacian(a, 1), lone_laplacian(a, ell)
            assert_agrees_with_is_psd(certify_g1_matrix(a, ell), gamma(a.n, ell) * lap - power)
            assert check_chain(a, ell) == check_chain(g, ell)
            # a complete G^ell has lambda2 exactly n, not the eigensolver's roundoff of it
            if oracles.complete_power(g.adjacency_matrix(), ell):
                assert a.power_lambda2(ell) == oracles.lambda2_complete(a.n)
            else:
                assert a.power_lambda2(ell) == eigen_decompose(power).eigenvalues[1]

    def test_solve_once_then_read_the_memo(self, solves):
        a = GraphAnalysis(erdos_renyi(12, 0.3, seed=3))
        assert a.connected and a.diameter >= 3
        solve_stacked([(a, [2, 3])])
        # every certificate is proved: L(G) and L(G^2) are eigensolved, and G^3 is complete (diameter 3),
        # so lambda2(G^3) is exactly 12
        assert sorted(a._lambda2s) == [1, 2, 3] and len(a._certificates) == 4
        assert closed_form(a, 3) and a._lambda2s[3] == 12.0
        assert {cert.method for cert in a._certificates.values()} == {"cholesky"}
        assert [len(stack) for stack, _ in solves] == [1 + 1]
        solve_stacked([(a, [2, 3])])
        a.lambda2, certify_g1_matrix(a, 3), certify_g2_matrix(a, 2), check_chain(a, 3)
        assert len(solves) == 1
        # G^4 is complete too: its lambda2 needs no eigensolve
        solve_stacked([(a, [2, 3, 4])])
        assert len(solves) == 1 and a._lambda2s[4] == 12.0 and len(a._certificates) == 6

    def test_a_miss_solves_only_the_missing_matrix(self, solves):
        g = erdos_renyi(30, 0.2, seed=3)
        assert GraphAnalysis(g).connected
        g1, g2 = certify_g1_matrix(g, 2), certify_g2_matrix(g, 2)
        check_chain(g, 2)
        # each lone certificate is proved without an eigensolve; the chain solves L(G) and L(G^2)
        assert g1.method == g2.method == "cholesky"
        assert [len(stack) for stack, _ in solves] == [1, 1]
        a = GraphAnalysis(g)
        certify_g2_matrix(a, 3)
        assert a._lambda2s == {} and list(a._certificates) == [("g2", 3)]

    def test_small_budget_gives_the_same_results_in_more_calls(self, monkeypatch, solves):
        graphs = campaign_graphs()
        default = []
        for g in graphs:
            a = GraphAnalysis(g)
            solve_stacked([(a, range(2, 6))])
            default.append(memos(a))
        assert len(solves) == len(graphs)
        monkeypatch.setattr(bounds, "_STACK_BYTES", 3 * 8 * 12 * 12)
        for g, expected in zip(graphs, default):
            a = GraphAnalysis(g)
            solve_stacked([(a, range(2, 6))])
            assert memos(a) == expected
        sizes = [len(stack) for stack, _ in solves[len(graphs) :]]
        assert max(sizes[:8]) == 3  # the n = 12 graphs: three members a stack
        assert len(sizes) > len(graphs)

    def test_a_matrix_over_budget_is_solved_alone_without_a_copy(self, monkeypatch, solves):
        monkeypatch.setattr(bounds, "_STACK_BYTES", 1)
        build, built = bounds.adjacency_laplacian, []
        monkeypatch.setattr(bounds, "adjacency_laplacian", lambda masks: built.append(build(masks)) or built[-1])
        a = GraphAnalysis(path_graph(6))
        solve_stacked([(a, [2])])
        # the two certificates are proved; their chunk builds L(G) and L(G^2), which each of them reads,
        # and eigensolves them one at a time, each a view of the stack it built
        assert {cert.method for cert in a._certificates.values()} == {"cholesky"}
        assert [stack.shape for stack, _ in solves] == [(1, 6, 6)] * 2
        assert [stack.shape for stack in built] == [(2, 6, 6)]
        assert all(stack.base is built[0] for stack, _ in solves)
        assert built[0][0].tobytes() == lone_laplacian(a, 1).tobytes()

    def test_disconnected_graph_solves_only_its_laplacian(self):
        a = GraphAnalysis(Graph.from_edges(6, [(0, 1), (2, 3)]))
        solve_stacked([(a, [2, 3])])
        assert list(a._lambda2s) == [1] and a._certificates == {}
        assert abs(a.lambda2) <= 1e-9
        # the g2 certificate stays defined there, solved on its own
        assert certify_g2_matrix(a, 2).verdict == spectral.PSD

    def test_solve_refuses_a_single_node(self):
        with pytest.raises(ValueError, match="solve needs n >= 2, got n=1"):
            solve_stacked([(GraphAnalysis(Graph.from_edges(1, [])), [2])])


def fresh_memo(g: Graph, ells) -> tuple[dict, dict]:
    a = GraphAnalysis(g)
    solve_stacked([(a, ells)])
    return memos(a)


class TestSolveStacked:
    ELLS = range(2, 5)

    def test_each_analysis_gets_its_own_results(self, solves):
        graphs = campaign_graphs()[:8]
        analyses = [GraphAnalysis(g) for g in graphs]
        solve_stacked((a, self.ELLS) for a in analyses)
        assert len(solves) == 1
        for g, a in zip(graphs, analyses):
            assert memos(a) == fresh_memo(g, self.ELLS)

    def test_stacks_cross_analysis_boundaries(self, monkeypatch, solves):
        graphs = campaign_graphs()[:8]
        expected = [fresh_memo(g, self.ELLS) for g in graphs]
        monkeypatch.setattr(bounds, "_STACK_BYTES", 5 * 8 * 12 * 12)
        settle, chunks = bounds._settle, []
        monkeypatch.setattr(bounds, "_settle", lambda chunk: chunks.append(chunk) or settle(chunk))
        del solves[:]
        analyses = [GraphAnalysis(g) for g in graphs]
        solve_stacked((a, self.ELLS) for a in analyses)
        # a chunk reads at most 5 (analysis, ell) keys, a certificate both L(G) and L(G^ell); it takes
        # the next analysis's work where the last one's stops, and eigensolves its lambda2s in one stack
        reads = [
            {(a, k) for a, ell, task in chunk for k in ((1, ell) if task in ("g1", "g2") else (ell,))}
            for chunk in chunks
        ]
        assert max(len(keys) for keys in reads) == 5
        solved = [[a for a, ell, task in chunk if task == "lambda2" and not closed_form(a, ell)] for chunk in chunks]
        assert [len(stack) for stack, _ in solves] == [len(members) for members in solved if members]
        assert any(len(set(members)) > 1 for members in solved)
        closed = sum(closed_form(a, ell) for a in analyses for ell in a._lambda2s)
        assert sum(len(stack) for stack, _ in solves) + closed == sum(len(lambda2s) for lambda2s, _ in expected)
        assert [memos(a) for a in analyses] == expected

    @pytest.mark.parametrize("members", [1, 2, 5])
    def test_chunks_stay_within_the_stack_budget(self, monkeypatch, solves, members):
        # a chunk's one mask broadcast, and so its Laplacians, hold at most max(2, stack_members(n)) keys
        # (a certificate reads two), and each eigensolve at most stack_members(n) of them; a complete G^ell
        # read by no certificate needs no Laplacian, and its lambda2 joins no eigensolve
        graphs = campaign_graphs()[:8]
        expected = [fresh_memo(g, self.ELLS) for g in graphs]
        del solves[:]
        monkeypatch.setattr(bounds, "_STACK_BYTES", members * 8 * 12 * 12)
        masks, laplacians = [], []
        adjacency, build = bounds.power_adjacency, bounds.adjacency_laplacian
        monkeypatch.setattr(bounds, "power_adjacency", lambda dist, ells: masks.append(len(ells)) or adjacency(dist, ells))
        monkeypatch.setattr(bounds, "adjacency_laplacian", lambda adj: laplacians.append(len(adj)) or build(adj))
        settle, chunks = bounds._settle, []
        monkeypatch.setattr(bounds, "_settle", lambda chunk: chunks.append(chunk) or settle(chunk))
        analyses = [GraphAnalysis(g) for g in graphs]
        solve_stacked((a, self.ELLS) for a in analyses)
        solved = [
            [(a, ell) for a, ell, task in chunk if task == "lambda2" and not closed_form(a, ell)] for chunk in chunks
        ]
        reads = [{(a, k) for a, ell, task in chunk if task in ("g1", "g2") for k in (1, ell)} for chunk in chunks]
        assert max(masks) == max(laplacians) == max(2, members)
        assert laplacians == [len(set(keys) | more) for keys, more in zip(solved, reads) if keys or more]
        sizes = [min(members, len(keys) - start) for keys in solved for start in range(0, len(keys), members)]
        assert [len(stack) for stack, _ in solves] == sizes and max(sizes) <= members
        assert [memos(a) for a in analyses] == expected

    def test_only_pending_keys_are_solved(self, solves):
        a, b = GraphAnalysis(erdos_renyi(12, 0.3, seed=3)), GraphAnalysis(erdos_renyi(12, 0.3, seed=4))
        assert a.connected and not b.connected
        solve_stacked([(a, [2])])
        solve_stacked([(a, [2, 3]), (b, [2])])
        # a: g1 and g2, both proved, and lambda2(G^3) alone of its results, exactly 12 as G^3 is complete;
        # b: only L(G), as its graph is disconnected
        assert a._certificates["g1", 3].method == a._certificates["g2", 3].method == "cholesky"
        assert closed_form(a, 3) and a._lambda2s[3] == 12.0
        assert [len(stack) for stack, _ in solves] == [2, 1]
        assert np.array_equal(solves[1][0], [lone_laplacian(b, 1)])

    def test_nothing_pending_makes_no_call(self, solves):
        solve_stacked([])
        a = GraphAnalysis(path_graph(5))
        solve_stacked([(a, [2])])
        solve_stacked([(a, [2]), (a, [2])])
        assert len(solves) == 1

    def test_mixed_orders_are_refused(self, solves):
        with pytest.raises(ValueError, match=r"one order, got n in \[5, 6\]"):
            solve_stacked([(GraphAnalysis(path_graph(5)), [2]), (GraphAnalysis(path_graph(6)), [2])])
        assert solves == []

    def test_an_analysis_listed_again_is_planned_once(self, solves):
        # a chunk's items are distinct, so the rows it eigensolves are its lambda2s and no other key's
        a, b, alone = GraphAnalysis(path_graph(7)), GraphAnalysis(cycle_graph(7)), GraphAnalysis(path_graph(7))
        solve_stacked([(a, [2]), (b, [2]), (a, [3])])
        solve_stacked([(alone, [2, 3])])
        assert sorted(a._lambda2s) == [1, 2, 3] and memos(a) == memos(alone) and a._counts == alone._counts
        c = GraphAnalysis(path_graph(6))
        del solves[:]
        solve_stacked([(c, [2, 3]), (c, [3, 2, 2])])
        assert [len(stack) for stack, _ in solves] == [3]  # L(G), L(G^2) and L(G^3), each once

    def test_ell_one_settles_g2_only(self):
        # gamma, and so the g1 matrix, needs ell >= 2; the g2 matrix at ell 1 is zero and settles
        # as a lone certify_g2_matrix does, through the eigensolver
        a = GraphAnalysis(path_graph(4))
        solve_stacked([(a, [1, 2])])
        assert sorted(a._certificates) == [("g1", 2), ("g2", 1), ("g2", 2)]
        assert a.certificate("g2", 1) == certify_g2_matrix(path_graph(4), 1)
        assert a.certificate("g2", 1).method == "eigen" and a.certificate("g2", 1).verdict == PSD
        assert memos(a)[0] == fresh_memo(path_graph(4), [2])[0]


class TestPlanner:
    """``solve_stacked`` plans whole analyses, and cuts the chunks that the per-item rule (``oracles.chunk_items``)
    cuts from the unsettled items of every pair (``oracles.pending_items``), item for item."""

    @staticmethod
    def mixed_pairs() -> list:
        """(analysis, ells) pairs of order 7: connected and disconnected, partly memoised, and listed again."""
        graphs = [path_graph(7), cycle_graph(7), star_graph(7), complete_graph(7), erdos_renyi(7, 0.4, seed=1)]
        path, cycle, star, complete, er = (GraphAnalysis(g) for g in graphs)
        split = GraphAnalysis(Graph.from_edges(7, [(0, 1), (1, 2), (3, 4)]))
        assert not split.connected and er.connected
        cycle.lambda2  # L(G) settled alone
        certify_g2_matrix(star, 2)  # one certificate and the counts of G^2
        solve_stacked([(er, [2])])
        return [
            (path, [2, 3]), (cycle, range(2, 5)), (split, [2, 3]), (path, [3, 4, 2]), (star, [2, 3]),
            (complete, [2]), (er, [2, 3]), (cycle, [4, 5]), (split, [2]), (path, [6]), (complete, [2, 1]),
        ]

    @pytest.mark.parametrize("budget", range(2, 9))
    def test_chunks_are_those_of_the_per_item_rule(self, monkeypatch, budget):
        pairs = self.mixed_pairs()
        expected = oracles.chunk_items(oracles.pending_items(pairs), budget)
        assert any(len({a for a, _, _ in chunk}) > 1 for chunk in expected)  # analyses share chunks
        monkeypatch.setattr(bounds, "_STACK_BYTES", budget * 8 * 7 * 7)
        settle, chunks = bounds._settle, []
        monkeypatch.setattr(bounds, "_settle", lambda chunk: chunks.append(list(chunk)) or settle(chunk))
        solve_stacked(pairs)
        assert chunks == expected


class TestCampaignGroups:
    """A campaign solves each drawn batch of trials in one ``solve_stacked`` call, with unchanged reports."""

    CONFIGS = [
        CampaignConfig(family="erdos_renyi", n=12, p=0.3, trials=60, seed=11),
        CampaignConfig(family="erdos_renyi", n=12, p=0.3, trials=60, seed=12, ell_policy=2),
    ]

    @pytest.fixture
    def events(self, monkeypatch):
        """("batch", size) per drawn batch and ("solve", counts, pairs) per ``solve_stacked`` call, where
        a trial's count is the Laplacians its checks read: L(G) and, if connected, L(G^ell) of each ell."""
        log = []
        generate, solve = cli.generate_batch, cli.solve_stacked

        def generated(*args, **kwargs):
            graphs = generate(*args, **kwargs)
            log.append(("batch", len(graphs)))
            return graphs

        def solved(pairs):
            pairs = list(pairs)
            log.append(("solve", [1 + len(ells) if a.connected else 1 for a, ells in pairs], pairs))
            solve(pairs)

        monkeypatch.setattr(cli, "generate_batch", generated)
        monkeypatch.setattr(cli, "solve_stacked", solved)
        return log

    @staticmethod
    def batches(events):
        """Per drawn batch: (its size, the counts and pairs of the one solve that follows it)."""
        assert [event[0] for event in events] == ["batch", "solve"] * (len(events) // 2)
        return [(size, counts, pairs) for (_, size), (_, counts, pairs) in zip(events[::2], events[1::2])]

    @staticmethod
    def chunks(total: int, per_stack: int) -> list[int]:
        return [min(per_stack, total - start) for start in range(0, total, per_stack)]

    def test_memo_equals_a_fresh_solve(self, events):
        run_campaign(CampaignConfig(family="erdos_renyi", n=12, p=0.3, trials=300, seed=7))
        batches = self.batches(events)
        assert len(batches) > 1
        for _, _, pairs in batches:
            for a, ells in pairs:
                assert memos(a) == fresh_memo(a.graph, ells)

    @pytest.mark.parametrize("config", CONFIGS, ids=["all", "ell2"])
    def test_a_five_matrix_budget_gives_the_same_report(self, monkeypatch, events, solves, config):
        default = summary_json(run_campaign(config))
        assert len(self.batches(events)) == len(solves) == 1
        del events[:], solves[:]
        monkeypatch.setattr(bounds, "_STACK_BYTES", 5 * 8 * config.n * config.n)
        prove, proof_sizes = bounds.prove_psd_stack, []
        monkeypatch.setattr(bounds, "prove_psd_stack", lambda stack: proof_sizes.append(len(stack)) or prove(stack))
        assert summary_json(run_campaign(config)) == default
        batches = self.batches(events)
        # max(1, 5 // 12): each batch is one trial, and its one solve holds that batch alone
        assert [size for size, _, _ in batches] == [1] * config.trials
        assert all(size == len(counts) == len(pairs) for size, counts, pairs in batches)
        # each solve cuts its batch's work into chunks of at most 5 (analysis, ell) keys: L(G) and the
        # first 4 ells, then 4 ells a chunk, each chunk eigensolving its new Laplacians, all but those of
        # complete G^ell, in one stack and proving its certificates (2 an ell) at most 5 a stack; a
        # disconnected trial solves L(G) alone
        laplacians, proofs = [], []
        for _, _, pairs in batches:
            for a, ells in pairs:
                groups = [ells[start : start + 4] for start in range(0, len(ells), 4)] if a.connected else [[]]
                sizes = [sum(not closed_form(a, ell) for ell in group) + (k == 0) for k, group in enumerate(groups)]
                laplacians += [size for size in sizes if size]
                proofs += [size for group in groups for size in self.chunks(2 * len(group), 5)]
        assert [len(stack) for stack, _ in solves] == laplacians and proof_sizes == proofs
        assert max(proof_sizes + laplacians) == (5 if config.ell_policy == "all" else 2)


@pytest.mark.parametrize("config", [
    CampaignConfig(family="erdos_renyi", n=12, p=0.3, trials=160, seed=5),
    CampaignConfig(family="random_tree", n=9, trials=40, seed=2, ell_policy=3),
], ids=["er12", "tree9"])
def test_batched_searches_change_no_stack_or_report(monkeypatch, solves, config):
    """A campaign whose analyses come one search per batch solves the same stacks, bitwise, and
    reports the same bytes as one whose every graph is searched alone."""
    batched = summary_json(run_campaign(config))
    stacks = [stack.tobytes() for stack, _ in solves]
    del solves[:]
    monkeypatch.setattr(GraphAnalysis, "batch", classmethod(lambda cls, graphs: [cls(g) for g in graphs]))
    assert summary_json(run_campaign(config)) == batched
    assert [stack.tobytes() for stack, _ in solves] == stacks


def test_campaign_members_are_checked_to_roundoff(solves):
    """Criterion 8's numerics on every member of a campaign's stacked solves."""
    # the certificates are proved, not eigensolved: 50 trials each give the eigensolver over 500 members
    for family, n in (("erdos_renyi", 12), ("random_tree", 14), ("erdos_renyi", 30)):
        config = CampaignConfig(family=family, n=n, p=0.3 if family == "erdos_renyi" else None, trials=50, seed=9)
        assert run_campaign(config).violations == []
    quality = [
        oracles.eigen_quality(a, s.eigenvalues, s.vectors) for stack, summaries in solves for a, s in zip(stack, summaries)
    ]
    assert len(quality) > 500
    assert max(r for r, _ in quality) <= 1e-8 and max(o for _, o in quality) <= 1e-10


def test_only_laplacians_reach_the_stacked_solve(monkeypatch):
    """Every member of every stacked eigensolve of a campaign and of ``solve_stacked`` is a graph
    Laplacian (integer entries, zero row sums, off-diagonal entries 0 or -1), also when a certificate
    falls back: that one gets a lone ``is_psd`` of its float matrix. No L(K_n) of a complete G^ell
    (ell >= 2) is among them: 86 of the 339 lambda2s of the 100-trial campaign are exactly n."""
    solve, members = bounds.eigen_decompose_stack, []
    monkeypatch.setattr(bounds, "eigen_decompose_stack", lambda stack: members.extend(stack) or solve(stack))
    lone, fallbacks = bounds.is_psd, []
    monkeypatch.setattr(bounds, "is_psd", lambda m: fallbacks.append(m) or lone(m))
    assert run_campaign(CampaignConfig(family="erdos_renyi", n=12, p=0.3, trials=100, seed=42)).violations == []
    assert len(members) == 253 and fallbacks == []
    # P3's two certificates at ell 2 are both 3 L(P3) - L(K3), singular as the bounds are tight there;
    # K3's g2 matrix at ell 2 is zero, as K3 is its own square; L(P3) and L(K3) are eigensolved, and
    # both squares are K3, whose lambda2 is exactly 3
    p3, k3 = GraphAnalysis(path_graph(3)), GraphAnalysis(complete_graph(3))
    solve_stacked([(p3, [2]), (k3, [2])])
    assert len(members) == 253 + 2 and len(fallbacks) == 3
    assert p3.power_lambda2(2) == k3.power_lambda2(2) == 3.0
    tight = 3.0 * laplacian(path_graph(3)) - laplacian(complete_graph(3))
    for a, kind, m in ((p3, "g1", tight), (p3, "g2", tight), (k3, "g2", np.zeros((3, 3)))):
        assert a.certificate(kind, 2) == is_psd(m) and a.certificate(kind, 2).method == "eigen"
    for m in members:
        off_diagonal = m[~np.eye(len(m), dtype=bool)]
        assert (m == np.rint(m)).all() and not m.sum(axis=1).any()
        assert np.isin(off_diagonal, (0.0, -1.0)).all()
