"""Independent checks of eccbounds CLI outputs.

Distances come from ``scipy.sparse.csgraph.dijkstra`` (the unit-weight
shortest-path search, stopped at ``ell`` hops where only those are needed)
and spectra from ``numpy.linalg.eigvalsh``; the package uses neither. Every check returns a
list of complaints, empty when the output is correct, so one bad output is
counted and reported rather than ending the run.
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np

#: Relative slack for lambda2 and for each bound against it: 1e-9 * max(1, lambda2).
REL_TOL = 1e-9


class Reference:
    """Ground truth for one input graph, computed on first use."""

    def __init__(self, n: int, edges: np.ndarray):
        self.n = n
        self.edges = edges
        self._dist: dict[float, np.ndarray] = {}

    def dist(self, limit: float = np.inf) -> np.ndarray:
        """Hop distances as floats; inf marks pairs unreachable within ``limit`` hops."""
        if limit not in self._dist:
            from scipy.sparse import coo_matrix
            from scipy.sparse.csgraph import dijkstra

            ones = np.ones(self.edges.shape[0])
            adj = coo_matrix((ones, (self.edges[:, 0], self.edges[:, 1])), shape=(self.n, self.n))
            self._dist[limit] = dijkstra(adj.tocsr(), directed=False, unweighted=True, limit=limit)
        return self._dist[limit]

    @cached_property
    def lambda2(self) -> float:
        lap = np.zeros((self.n, self.n))
        u, v = self.edges[:, 0], self.edges[:, 1]
        lap[u, v] = lap[v, u] = -1.0
        np.fill_diagonal(lap, -lap.sum(axis=1))
        return float(np.linalg.eigvalsh(lap)[1])

    def power_pairs(self, ell: int) -> np.ndarray:
        """Sorted keys u * n + v (u < v) of the pairs at distance 1..ell."""
        iu, ju = np.nonzero(np.triu(self.dist(limit=ell) <= ell, k=1))
        return iu * self.n + ju


def check_analyze(ref: Reference, ell: int, text: str) -> list[str]:
    """Check an ``analyze --format json`` report against the reference."""
    report = json.loads(text)
    dist = ref.dist()
    if not np.isfinite(dist).all():
        return ["analyze input must be connected"]
    n = ref.n
    m = ref.edges.shape[0]
    ecc = dist.max(axis=1)
    expected = {
        "n": n,
        "m": m,
        "ell": ell,
        "diameter": int(ecc.max()),
        "s1": int((ecc <= 1).sum()),
        "s2": int((ecc <= 2).sum()),
        "s_ell": int((ecc <= ell).sum()),
        "e_power": int(ref.power_pairs(ell).shape[0]),
        "e_complement": n * (n - 1) // 2 - m,
    }
    problems = [
        f"{key}={report.get(key)!r}, expected {value}"
        for key, value in expected.items()
        if report.get(key) != value
    ]
    lam = ref.lambda2
    slack = REL_TOL * max(1.0, lam)
    got = report.get("lambda2")
    if not isinstance(got, (int, float)) or abs(got - lam) > slack:
        problems.append(f"lambda2={got!r}, expected {lam!r}")
    for key, value in report.items():
        if key.startswith("bound_") and value is not None and value > lam + slack:
            problems.append(f"{key}={value!r} exceeds lambda2={lam!r}")
    return problems


def parse_edge_list(text: str) -> tuple[int, np.ndarray]:
    """Node count and (m, 2) endpoint array of an edge-list text."""
    lines = [line for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")]
    header = lines[0].split()
    if len(header) != 2 or header[0] != "n":
        raise ValueError(f"bad header {lines[0]!r}")
    pairs = np.array(" ".join(lines[1:]).split(), dtype=np.int64)
    if pairs.shape[0] % 2:
        raise ValueError("odd number of endpoints")
    return int(header[1]), pairs.reshape(-1, 2)


def check_power(ref: Reference, ell: int, text: str) -> list[str]:
    """Check a ``power`` edge list: exactly the pairs at distance 1..ell."""
    n, pairs = parse_edge_list(text)
    if n != ref.n:
        return [f"n={n}, expected {ref.n}"]
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    if pairs.size and ((lo < 0) | (hi >= n) | (lo == hi)).any():
        return ["endpoint out of range or self-loop"]
    got = np.unique(lo * n + hi)
    want = ref.power_pairs(ell)
    if np.array_equal(got, want):
        return []
    missing = np.setdiff1d(want, got)
    extra = np.setdiff1d(got, want)
    return [f"{missing.size} power edges missing, {extra.size} unexpected"]


def check_verify(text: str, *, seed: int, trials: int) -> list[str]:
    """A campaign report must be for this seed, complete, and free of violations."""
    summary = json.loads(text)
    problems = []
    if summary["config"]["seed"] != seed:
        problems.append(f"report is for seed {summary['config']['seed']}, expected {seed}")
    if summary["trials"] != trials:
        problems.append(f"trials={summary['trials']}, expected {trials}")
    if summary["connected_trials"] + summary["disconnected_trials"] != trials:
        problems.append("connected and disconnected trials do not add up")
    if summary["violations"] != 0:
        problems.append(f"violations={summary['violations']}")
    return problems
