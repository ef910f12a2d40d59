"""Kernel call counts: each distance matrix, Laplacian and L(G) spectrum once per graph, and one BFS
per batch of campaign trials."""

import numpy as np
import pytest

import oracles
from eccbounds import _kernels, bounds, cli, metrics, spectral
from eccbounds.bounds import GraphAnalysis, evaluate_all, stack_members
from eccbounds.certify import check_chain
from eccbounds.cli import CampaignConfig, run_campaign, run_tightness
from eccbounds.graphs import Graph, generate, path_graph


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts BFS kernel calls made through ``_kernels`` and stacked eigensolves, with the
    matrices they hold, made through every eccbounds module importing the solver core."""
    counts = {"bfs_all_pairs": 0, "eigen_decompose_stack": 0, "matrices": 0}
    bfs, solve = _kernels.bfs_all_pairs, spectral.eigen_decompose_stack

    def counted_bfs(*args):
        counts["bfs_all_pairs"] += 1
        return bfs(*args)

    def counted_solve(stack):
        counts["eigen_decompose_stack"] += 1
        counts["matrices"] += len(stack)
        return solve(stack)

    monkeypatch.setattr(_kernels, "bfs_all_pairs", counted_bfs)
    oracles.patch_everywhere(monkeypatch, solve, counted_solve)
    return counts


@pytest.fixture
def searched(monkeypatch):
    """The member count of every BFS kernel call made through ``_kernels``: its packed rows over n."""
    members = []
    bfs = _kernels.bfs_all_pairs

    def counted(indptr, indices, n):
        members.append((len(indptr) - 1) // n)
        return bfs(indptr, indices, n)

    monkeypatch.setattr(_kernels, "bfs_all_pairs", counted)
    return members


@pytest.fixture
def proof_calls(monkeypatch):
    """Counts ``prove_psd_stack`` calls, with the certificates they receive and prove."""
    counts = {"calls": 0, "certificates": 0, "proved": 0}
    original = spectral.prove_psd_stack

    def counted(stack):
        proved = original(stack)
        counts["calls"] += 1
        counts["certificates"] += len(stack)
        counts["proved"] += int(proved.sum())
        return proved

    oracles.patch_everywhere(monkeypatch, original, counted)
    return counts


@pytest.fixture
def laplacian_builds(monkeypatch):
    """Counts ``spectral.laplacian`` calls through every eccbounds module that imports it."""
    original = spectral.laplacian
    count = [0]

    def counted(g):
        count[0] += 1
        return original(g)

    oracles.patch_everywhere(monkeypatch, original, counted)
    return count


def test_evaluate_all_on_a_graph_makes_one_bfs_and_one_eigensolve(kernel_calls):
    evaluate_all(path_graph(6), 3)
    assert kernel_calls == {"bfs_all_pairs": 1, "eigen_decompose_stack": 1, "matrices": 1}


def test_check_chain_on_a_built_analysis_makes_no_bfs(kernel_calls):
    analysis = GraphAnalysis(path_graph(7))
    assert kernel_calls["bfs_all_pairs"] == 1
    for ell in range(2, 8):
        assert check_chain(analysis, ell).all_hold
    assert kernel_calls["bfs_all_pairs"] == 1


class TestKernelCallCounts:
    """One BFS per graph, whatever ell is checked: chain link 3 reads s1(G^ell)
    from the degree row sums of G^ell's mask; a campaign searches its trials together, one
    BFS per batch of at most ``stack_members(n) // n`` trials. Per connected (graph, ell) check, the two
    certificate matrices go to one batched Cholesky proof, and here every one
    is proved; so only L(G) and L(G^ell) are eigensolved, each once, stacked
    across the trials of a batch by one ``solve_stacked`` call, and a campaign
    of one batch whose matrices fit one stack makes one stacked eigensolve. A complete G^ell
    is not eigensolved: its lambda2 is exactly n. ``spectral.laplacian`` builds nothing:
    L(G) = L(G^1) and L(G^ell) are read from the distance matrix, each once per
    graph, and shared by both certificates and the chain."""

    @pytest.mark.parametrize("ell_policy", ["all", 3])
    def test_campaign(self, kernel_calls, proof_calls, laplacian_builds, ell_policy):
        config = CampaignConfig(
            family="erdos_renyi", n=8, p=0.3, trials=12, seed=5, ell_policy=ell_policy
        )
        # Regenerate the campaign's graphs and count its connected checks with
        # the Floyd-Warshall oracle, independently of the package's BFS.
        rng = np.random.default_rng(config.seed)
        connected_checks = complete_checks = disconnected = 0
        for _ in range(config.trials):
            g = generate(config.family, config.n, p=config.p, seed=rng)
            fw = oracles.floyd_warshall(g.adjacency_matrix())
            if not np.isfinite(fw).all():
                disconnected += 1
            else:
                ells = range(2, max(2, int(fw.max())) + 1) if ell_policy == "all" else [ell_policy]
                connected_checks += len(ells)
                complete_checks += sum(ell >= fw.max() for ell in ells)  # G^ell is complete
        assert disconnected > 0 and connected_checks > complete_checks > 0

        summary = run_campaign(config)
        assert summary.violations == []
        assert summary.checks == connected_checks + disconnected
        # all 12 trials are one batch (up to stack_members(8) // 8 = 256 trials a batch)
        assert kernel_calls["bfs_all_pairs"] == 1
        assert proof_calls == {"calls": 1, "certificates": 2 * connected_checks, "proved": 2 * connected_checks}
        assert kernel_calls["matrices"] == config.trials + connected_checks - complete_checks
        # every matrix of the campaign fits one stack (2,048 members at n = 8)
        assert config.trials + 3 * connected_checks < stack_members(config.n)
        assert kernel_calls["eigen_decompose_stack"] == 1
        assert laplacian_builds[0] == 0

    def test_hundred_trial_campaign_searches_two_batches(self, monkeypatch, searched, kernel_calls, proof_calls):
        # 75 = stack_members(12) // 12 = 910 // 12 trials a batch, so 100 trials take two searches,
        # and each batch is settled by one solve_stacked call: two stacked eigensolves and two proofs
        # over the matrices of the trial-at-a-time route, but for the 86 complete G^ell
        solve, solved = cli.solve_stacked, []
        monkeypatch.setattr(cli, "solve_stacked", lambda pairs: solved.append(len(pairs)) or solve(pairs))
        config = CampaignConfig(family="erdos_renyi", n=12, p=0.3, trials=100, seed=42)
        assert run_campaign(config).violations == []
        assert searched == [75, 25] and solved == [75, 25]
        assert (kernel_calls["eigen_decompose_stack"], kernel_calls["matrices"]) == (2, 253)
        assert proof_calls == {"calls": 2, "certificates": 478, "proved": 478}

    def test_hundred_trial_campaign_builds_each_mask_once(self, monkeypatch, kernel_calls, proof_calls):
        # 353 distinct (graph, ell) keys, ell = 1 for G: one mask broadcast per batch serves the proofs, the
        # eigensolve and the counts of the 253 G^ell the checks read, and no G^ell becomes a Graph; of the
        # 339 lambda2s, the 86 of complete G^ell are exactly 12 and are not eigensolved
        adjacency, masks = metrics.power_adjacency, []
        oracles.patch_everywhere(
            monkeypatch, adjacency, lambda dist, ell: masks.append(len(np.ravel(ell))) or adjacency(dist, ell)
        )
        lone, from_adjacency = [], Graph.from_adjacency
        counted = classmethod(lambda cls, adj: lone.append(adj) or from_adjacency(adj))
        monkeypatch.setattr(Graph, "from_adjacency", counted)
        solve, analyses = cli.solve_stacked, []
        monkeypatch.setattr(cli, "solve_stacked", lambda pairs: analyses.extend(a for a, _ in pairs) or solve(pairs))
        config = CampaignConfig(family="erdos_renyi", n=12, p=0.3, trials=100, seed=42)
        assert run_campaign(config).violations == []
        assert len(masks) == 2 and sum(masks) == 353
        assert lone == [] and all(a._powers == {} for a in analyses)
        assert sum(len(a._counts) for a in analyses) == 253
        lambda2s = [(a, ell) for a in analyses for ell in a._lambda2s]
        closed = [(a, ell) for a, ell in lambda2s if ell >= 2 and a._lambda2s[ell] == 12.0]
        assert len(lambda2s) == 339 and len(closed) == 86
        assert all(oracles.complete_power(a.graph.adjacency_matrix(), ell) for a, ell in closed)
        assert (kernel_calls["eigen_decompose_stack"], kernel_calls["matrices"]) == (2, 253)
        assert proof_calls == {"calls": 2, "certificates": 478, "proved": 478}

    @pytest.mark.parametrize("n, batches", [(8, [10]), (30, [4, 4, 2]), (120, [1] * 10)])
    def test_batch_size_follows_the_stack_budget(self, searched, n, batches):
        # max(1, stack_members(n) // n): 256 at n = 8, 4 at n = 30 (145 // 30), 1 at n = 120
        run_campaign(CampaignConfig(family="random_tree", n=n, trials=10, seed=1, ell_policy=2))
        assert searched == batches

    @pytest.mark.parametrize("family", ["path", "cycle", "star", "complete"])
    def test_tightness_solves_each_member_once(self, kernel_calls, family):
        records = run_tightness(family, 9)
        assert records
        members = 9 - 3 + 1
        assert kernel_calls == {"bfs_all_pairs": members, "eigen_decompose_stack": members, "matrices": members}


def test_patch_everywhere_fails_when_no_module_holds_the_function(monkeypatch):
    # a counter wrapped around a function the package does not import would count nothing
    with pytest.raises(AssertionError, match="no eccbounds module holds floyd_warshall"):
        oracles.patch_everywhere(monkeypatch, oracles.floyd_warshall, None)
