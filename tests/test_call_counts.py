"""Kernel call counts: each distance matrix, Laplacian and L(G) spectrum once per graph."""

import sys

import numpy as np
import pytest

import oracles
from eccbounds import _kernels, spectral
from eccbounds.bounds import GraphAnalysis, evaluate_all
from eccbounds.certify import check_chain
from eccbounds.cli import CampaignConfig, run_campaign, run_tightness
from eccbounds.graphs import generate, path_graph


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts calls of the BFS and Jacobi kernels made through ``_kernels``."""
    counts = {"bfs_all_pairs": 0, "jacobi_sweeps": 0}
    for name in counts:
        original = getattr(_kernels, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(_kernels, name, counted)
    return counts


@pytest.fixture
def laplacian_builds(monkeypatch):
    """Counts ``spectral.laplacian`` calls through every eccbounds module that imports it."""
    original = spectral.laplacian
    count = [0]

    def counted(g):
        count[0] += 1
        return original(g)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "eccbounds" and getattr(module, "laplacian", None) is original:
            monkeypatch.setattr(module, "laplacian", counted)
    return count


def test_evaluate_all_on_a_graph_makes_one_bfs_and_one_eigensolve(kernel_calls):
    evaluate_all(path_graph(6), 3)
    assert kernel_calls == {"bfs_all_pairs": 1, "jacobi_sweeps": 1}


def test_check_chain_on_a_built_analysis_makes_no_bfs(kernel_calls):
    analysis = GraphAnalysis(path_graph(7))
    assert kernel_calls["bfs_all_pairs"] == 1
    for ell in range(2, 8):
        assert check_chain(analysis, ell).all_hold
    assert kernel_calls["bfs_all_pairs"] == 1


class TestKernelCallCounts:
    """One BFS per graph, whatever ell is checked: chain link 3 reads s1(G^ell)
    from the power graph's degrees. One L(G) eigensolve per graph, plus per
    connected (graph, ell) check three eigensolves (two certificates and
    lambda2(G^ell)). L(G) is built once inside lambda2(G) and, for a connected
    graph, once more for the certificates; L(G^ell) is built once per connected
    check and shared by both certificates and the chain."""

    @pytest.mark.parametrize("ell_policy", ["all", 3])
    def test_campaign(self, kernel_calls, laplacian_builds, ell_policy):
        config = CampaignConfig(
            family="erdos_renyi", n=8, p=0.3, trials=12, seed=5, ell_policy=ell_policy
        )
        # Regenerate the campaign's graphs and count its connected checks with
        # the Floyd-Warshall oracle, independently of the package's BFS.
        rng = np.random.default_rng(config.seed)
        connected_checks = disconnected = 0
        for _ in range(config.trials):
            g = generate(config.family, config.n, p=config.p, seed=rng)
            fw = oracles.floyd_warshall(g.adjacency_matrix())
            if not np.isfinite(fw).all():
                disconnected += 1
            else:
                connected_checks += max(1, int(fw.max()) - 1) if ell_policy == "all" else 1
        assert disconnected > 0 and connected_checks > 0

        summary = run_campaign(config)
        assert summary.violation_count == 0
        assert summary.checks == connected_checks + disconnected
        assert kernel_calls["bfs_all_pairs"] == config.trials
        assert kernel_calls["jacobi_sweeps"] == config.trials + 3 * connected_checks
        connected_graphs = config.trials - disconnected
        assert laplacian_builds[0] == config.trials + connected_graphs + connected_checks

    @pytest.mark.parametrize("family", ["path", "cycle", "star", "complete"])
    def test_tightness_solves_each_member_once(self, kernel_calls, family):
        records = run_tightness(family, 9)
        assert records
        members = 9 - 3 + 1
        assert kernel_calls == {"bfs_all_pairs": members, "jacobi_sweeps": members}
