"""Benchmark workloads: inputs generated from a seed, and the CLI operations run on them.

Graph inputs are drawn with the benchmark's own numpy generators, never with
``eccbounds.generate``, and written as edge-list files before any timing.
``verify`` campaigns are the exception: the CLI generates their graphs from
the campaign seed, which is its documented interface.

Each workload is a pool of operations, larger than a 30 s run consumes at
the speed of the code this benchmark was written against. A run thus times a
fresh random sample of inputs rather than a partial cycle whose mix would
change from run to run; faster code cycles through the pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

VERIFY_N = 12
VERIFY_P = 0.3
VERIFY_TRIALS = 2
VERIFY_CAMPAIGNS = 256

ANALYZE_N = 50
ANALYZE_MEAN_DEGREE = 6.0
ANALYZE_ELLS = (2, 4)
ANALYZE_GRAPHS = 96

POWER_ER_N = 600
POWER_ER_MEAN_DEGREE = 4.0
POWER_ER_ELL = 2
POWER_TREE_N = 480
POWER_TREE_ELL = 3
#: Two ER inputs per tree keep the median inside the ER mode and the p90
#: tail inside the tree mode; an even split would put the median on the
#: boundary between the two and make it jump from run to run.
POWER_BLOCKS = 64


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``check`` returns the oracle's complaints about its output."""

    argv: tuple[str, ...]
    check: Callable[[str], list[str]]


def er_edges(rng: np.random.Generator, n: int, mean_degree: float) -> np.ndarray:
    """G(n, p) with p = mean_degree / (n - 1), as an (m, 2) array of pairs u < v."""
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < mean_degree / (n - 1)
    return np.stack([iu[keep], ju[keep]], axis=1)


def uniform_tree_edges(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform random labelled tree: the Aldous-Broder walk on the complete graph."""
    visited = np.zeros(n, dtype=bool)
    current = int(rng.integers(n))
    visited[current] = True
    edges = []
    while len(edges) < n - 1:
        for step in rng.integers(n - 1, size=4 * n).tolist():
            nxt = step + (step >= current)  # uniform over the n - 1 other nodes
            if not visited[nxt]:
                visited[nxt] = True
                edges.append((min(current, nxt), max(current, nxt)))
                if len(edges) == n - 1:
                    break
            current = nxt
    return np.array(edges, dtype=np.int64)


def is_connected(n: int, edges: np.ndarray) -> bool:
    """Label propagation to the minimum node id over the edges."""
    label = np.arange(n)
    while True:
        before = label.copy()
        np.minimum.at(label, edges[:, 0], label[edges[:, 1]])
        np.minimum.at(label, edges[:, 1], label[edges[:, 0]])
        label = label[label]
        if np.array_equal(label, before):
            return bool((label == 0).all())


def write_edge_list(path: Path, n: int, edges: np.ndarray) -> None:
    lines = [f"n {n}"]
    lines.extend(f"{u} {v}" for u, v in edges.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _verify_ops(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = []
    for seed in rng.choice(2**31 - 1, size=VERIFY_CAMPAIGNS, replace=False).tolist():
        argv = (
            "verify", "--family", "erdos_renyi", "--n", str(VERIFY_N), "--p", str(VERIFY_P),
            "--ell", "all", "--trials", str(VERIFY_TRIALS), "--seed", str(seed),
        )
        ops.append(Op(argv, partial(oracle.check_verify, seed=seed, trials=VERIFY_TRIALS)))
    return ops


def _analyze_ops(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = []
    seen: set[bytes] = set()
    while len(seen) < ANALYZE_GRAPHS:
        edges = er_edges(rng, ANALYZE_N, ANALYZE_MEAN_DEGREE)
        if not is_connected(ANALYZE_N, edges) or edges.tobytes() in seen:
            continue
        seen.add(edges.tobytes())
        path = workdir / f"analyze-{len(seen):02d}.txt"
        write_edge_list(path, ANALYZE_N, edges)
        ref = oracle.Reference(ANALYZE_N, edges)
        for ell in ANALYZE_ELLS:
            argv = ("analyze", str(path), "--ell", str(ell), "--format", "json")
            ops.append(Op(argv, partial(oracle.check_analyze, ref, ell)))
    return ops


def _power_ops(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = []
    for block in range(POWER_BLOCKS):
        inputs = [
            ("er", POWER_ER_N, er_edges(rng, POWER_ER_N, POWER_ER_MEAN_DEGREE), POWER_ER_ELL),
            ("er", POWER_ER_N, er_edges(rng, POWER_ER_N, POWER_ER_MEAN_DEGREE), POWER_ER_ELL),
            ("tree", POWER_TREE_N, uniform_tree_edges(rng, POWER_TREE_N), POWER_TREE_ELL),
        ]
        for k, (kind, n, edges, ell) in enumerate(inputs):
            path = workdir / f"power-{block:02d}-{k}-{kind}.txt"
            write_edge_list(path, n, edges)
            argv = ("power", str(path), "--ell", str(ell))
            ops.append(Op(argv, partial(oracle.check_power, oracle.Reference(n, edges), ell)))
    return ops


WORKLOADS = {
    "verify-er12": _verify_ops,
    "analyze-mid": _analyze_ops,
    "power-sparse": _power_ops,
}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """Generate the workload's inputs into ``workdir`` and return its operation pool."""
    return WORKLOADS[name](np.random.default_rng([seed, sorted(WORKLOADS).index(name)]), workdir)
