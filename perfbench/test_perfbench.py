"""Tests of the benchmark's oracle, tracer and input generators.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import eccbounds
import eccbounds.cli
import layers
import oracle
import workloads


def _run_cli(tmp_path, *argv: str) -> str:
    out = tmp_path / "out.txt"
    assert eccbounds.cli.main([*argv, "--out", str(out)]) == 0
    return out.read_text()


@pytest.fixture
def graph(tmp_path):
    rng = np.random.default_rng(7)
    while True:
        edges = workloads.er_edges(rng, 20, 4.0)
        if workloads.is_connected(20, edges):
            break
    path = tmp_path / "g.txt"
    workloads.write_edge_list(path, 20, edges)
    return path, oracle.Reference(20, edges)


def test_analyze_oracle_accepts_real_output_and_catches_perturbed_lambda2(tmp_path, graph):
    path, ref = graph
    text = _run_cli(tmp_path, "analyze", str(path), "--ell", "3", "--format", "json")
    assert oracle.check_analyze(ref, 3, text) == []
    report = json.loads(text)
    report["lambda2"] *= 1 + 1e-7
    problems = oracle.check_analyze(ref, 3, json.dumps(report))
    assert any("lambda2" in p for p in problems)


def test_analyze_oracle_catches_bound_above_lambda2_and_wrong_counts(tmp_path, graph):
    path, ref = graph
    report = json.loads(_run_cli(tmp_path, "analyze", str(path), "--ell", "2", "--format", "json"))
    report["bound_mohar"] = report["lambda2"] * 1.001
    report["e_power"] += 1
    problems = oracle.check_analyze(ref, 2, json.dumps(report))
    assert any("bound_mohar" in p for p in problems)
    assert any("e_power" in p for p in problems)


def test_power_oracle_catches_dropped_edge(tmp_path, graph):
    path, ref = graph
    text = _run_cli(tmp_path, "power", str(path), "--ell", "2")
    assert oracle.check_power(ref, 2, text) == []
    lines = text.splitlines()
    dropped = "\n".join(lines[:3] + lines[4:]) + "\n"
    assert oracle.check_power(ref, 2, dropped) == ["1 power edges missing, 0 unexpected"]


def test_power_oracle_handles_disconnected_input():
    ref = oracle.Reference(4, np.array([[0, 1], [2, 3]]))
    assert oracle.check_power(ref, 3, "n 4\n0 1\n2 3\n") == []
    assert oracle.check_power(ref, 3, "n 4\n0 1\n1 2\n2 3\n") == ["0 power edges missing, 1 unexpected"]


def test_verify_oracle_catches_violations_and_wrong_seed(tmp_path):
    text = _run_cli(tmp_path, "verify", "--family", "erdos_renyi", "--n", "8", "--p", "0.4",
                    "--trials", "2", "--seed", "5")
    assert oracle.check_verify(text, seed=5, trials=2) == []
    summary = json.loads(text)
    summary["violations"] = 1
    assert oracle.check_verify(json.dumps(summary), seed=5, trials=2) == ["violations=1"]
    assert oracle.check_verify(text, seed=6, trials=2) == ["report is for seed 5, expected 6"]


def test_tracer_patches_every_import_site_and_restores_them():
    original = eccbounds.metrics.all_pairs_distances
    from_adjacency = eccbounds.Graph.__dict__["from_adjacency"]
    sites = [eccbounds, eccbounds.metrics, eccbounds.bounds, eccbounds.certify, eccbounds.cli]
    with layers.Tracer():
        for module in sites:
            assert module.all_pairs_distances is not original
            assert hasattr(module.all_pairs_distances, "__perfbench_boundary__")
        assert hasattr(eccbounds.Graph.from_adjacency, "__perfbench_boundary__")
    assert all(module.all_pairs_distances is original for module in sites)
    assert eccbounds.Graph.__dict__["from_adjacency"] is from_adjacency


def test_tracer_counts_calls_made_through_module_globals():
    tracer = layers.Tracer()
    with tracer:
        eccbounds.evaluate_all(eccbounds.path_graph(5), 2)
    names = [span.name for span in tracer.spans]
    parents = {span.name: names[span.parent] if span.parent >= 0 else None for span in tracer.spans}
    tracer.end_op()
    totals = tracer.totals
    assert totals["bounds.evaluate_all"].calls == 1
    assert totals["metrics.all_pairs_distances"].calls == 1
    assert totals["spectral.lambda2"].calls == 1
    assert totals["spectral.eigen_decompose"].calls == 1
    assert totals["_kernels.jacobi_sweeps"].calls == 1
    assert totals["graphs.Graph.from_adjacency"].calls == 1
    assert parents["spectral.eigen_decompose"] == "spectral.lambda2"
    assert parents["_kernels.jacobi_sweeps"] == "spectral.eigen_decompose"
    metrics = tracer.metrics()
    assert metrics["spectral.eigen_decompose.n3_sum"] == 125
    assert metrics["spectral.max_rel_residual"] < 1e-9
    assert metrics["spectral.max_orth_error"] < 1e-9


def test_tracer_counts_distinct_inputs_byte_for_byte():
    g = eccbounds.cycle_graph(6)
    tracer = layers.Tracer()
    with tracer:
        for _ in range(3):
            eccbounds.all_pairs_distances(g)
        eccbounds.all_pairs_distances(eccbounds.path_graph(6))
    tracer.end_op()
    totals = tracer.totals["metrics.all_pairs_distances"]
    assert (totals.calls, totals.distinct) == (4, 2)
    assert tracer.metrics()["metrics.all_pairs_distances.useful_ratio"] == 0.5


def test_self_time_subtracts_direct_children():
    tracer = layers.Tracer()
    tracer.spans.extend([
        layers.Span("cli.main", 0.0, 10.0, -1, ()),
        layers.Span("bounds.evaluate_all", 2.0, 5.0, 0, ()),
        layers.Span("spectral.lambda2", 3.0, 4.0, 1, ()),
        layers.Span("graphs.generate", 6.0, 6.5, 0, ()),
    ])
    tracer.end_op()
    self_s = {name: t.self_s for name, t in tracer.totals.items() if t.calls}
    assert self_s == {
        "cli.main": 6.5,
        "bounds.evaluate_all": 2.0,
        "spectral.lambda2": 1.0,
        "graphs.generate": 0.5,
    }


def test_missing_boundary_reports_zero_calls(monkeypatch):
    monkeypatch.delattr(eccbounds.spectral, "is_psd")
    monkeypatch.delattr(eccbounds.graphs.Graph, "from_adjacency")
    tracer = layers.Tracer()
    with tracer:
        eccbounds.lambda2(eccbounds.path_graph(4))
    tracer.end_op()
    metrics = tracer.metrics()
    assert metrics["spectral.is_psd.calls"] == 0
    assert metrics["graphs.Graph.from_adjacency.calls"] == 0
    assert metrics["spectral.lambda2.calls"] == 1
    assert metrics["certify.min_margin"] == 0.0


def test_uniform_tree_is_a_spanning_tree():
    n = 300
    edges = workloads.uniform_tree_edges(np.random.default_rng(3), n)
    assert edges.shape == (n - 1, 2)
    assert (edges[:, 0] < edges[:, 1]).all()
    assert workloads.is_connected(n, edges)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(tmp_path, name):
    def inputs(seed: int, subdir: str) -> list[tuple[str, ...]]:
        workdir = tmp_path / subdir
        workdir.mkdir()
        ops = workloads.build(name, seed, workdir)
        return [tuple(Path(a).read_text() if a.startswith(str(workdir)) else a for a in op.argv) for op in ops]

    assert inputs(11, "a") == inputs(11, "b")
    assert inputs(11, "c") != inputs(12, "d")
