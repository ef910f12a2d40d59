"""Independent reference implementations used as oracles by the test suite.

Nothing here shares code with the package under test: distances come from
Floyd-Warshall instead of BFS, spectra come from scipy's implicit-QR LAPACK
driver (``dsyev``) or integer characteristic-polynomial arithmetic instead of
the package's numpy ``eigh`` (divide and conquer, ``dsyevd``) and Jacobi
sweeps, and expected eigenvalues come from closed forms. The edge-list
reader and writer are the line-at-a-time ``int`` and ``"%d %d\n"`` versions
that the package's bulk parser and table-driven serializer replaced, and
random trees come from the pointer-walk Prüfer decode that the package's
min-heap decode replaced. ``csr`` builds a graph's compressed rows from
Python lists; a valid edge set has exactly one, so comparing a graph's arrays
with it checks every structural invariant at once.

``patch_everywhere`` is the suite's one way to wrap a package function: at
every eccbounds module that imports it.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import chain

import numpy as np
import scipy.linalg


def floyd_warshall(adj: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths on a 0/1 adjacency matrix; inf = unreachable."""
    n = adj.shape[0]
    dist = np.where(adj > 0, 1.0, np.inf)
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def connected(adj: np.ndarray) -> bool:
    """Every pair joined by a path, by Floyd-Warshall."""
    return bool(np.isfinite(floyd_warshall(adj)).all())


def power_adjacency(adj: np.ndarray, ell: int) -> np.ndarray:
    """Brute-force power graph: edge wherever 1 <= distance <= ell."""
    dist = floyd_warshall(adj)
    return ((dist >= 1) & (dist <= ell)).astype(np.int64)


def eccentricities(adj: np.ndarray) -> np.ndarray:
    """Per-node eccentricities; inf where some node is unreachable."""
    return floyd_warshall(adj).max(axis=1)


def sorted_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, by implicit QR (scipy's own LAPACK ``dsyev``).

    The package seeds its solver with numpy's divide-and-conquer ``eigh``; a
    different algorithm from a different build keeps the oracle independent.
    """
    return scipy.linalg.eigvalsh(a, driver="ev")


def char_poly_value(a: np.ndarray, lam: int) -> Fraction:
    """det(A - lam*I) by exact fraction-free cofactor expansion.

    Exact rational arithmetic, so a return value of 0 proves lam is an
    eigenvalue of the integer matrix A. Intended for tiny matrices only.
    """
    n = a.shape[0]
    m = [[Fraction(int(a[i, j])) - (Fraction(lam) if i == j else 0) for j in range(n)] for i in range(n)]

    def det(rows: list[list[Fraction]]) -> Fraction:
        if len(rows) == 1:
            return rows[0][0]
        total = Fraction(0)
        for j, head in enumerate(rows[0]):
            if head == 0:
                continue
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            total += (-1) ** j * head * det(minor)
        return total

    return det(m)


def lambda2_path(n: int) -> float:
    return 4.0 * math.sin(math.pi / (2 * n)) ** 2


def lambda2_cycle(n: int) -> float:
    return 2.0 * (1.0 - math.cos(2 * math.pi / n))


def lambda2_complete(n: int) -> float:
    return float(n)


def lambda2_star(n: int) -> float:
    del n
    return 1.0


def hypercube_edges(k: int) -> list[tuple[int, int]]:
    """Edges (u < v) of the hypercube Q_k on 2**k nodes, joining labels one bit apart.

    Closed forms: lambda2 = 2, diameter and every eccentricity k, and
    sum(comb(k, i) for i in 1..ell) neighbours within ell of each node.
    """
    return [(u, u | 1 << b) for u in range(1 << k) for b in range(k) if not u >> b & 1]


class EdgeListError(ValueError):
    """The reference parser's rejection, numbered and worded as the package's ``ParseError``."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def patch_everywhere(mp, original, replacement) -> None:
    """Set ``replacement`` in place of ``original`` at every eccbounds module holding it by name.

    ``mp`` is a ``pytest.MonkeyPatch``. Fails if no module holds ``original``,
    so a wrapper cannot silently see none of the calls.
    """
    name = original.__name__
    modules = [
        module
        for key, module in list(sys.modules.items())
        if key.split(".")[0] == "eccbounds" and getattr(module, name, None) is original
    ]
    assert modules, f"no eccbounds module holds {name}"
    for module in modules:
        mp.setattr(module, name, replacement)


def prufer_tree_edges(n: int, seed) -> set[tuple[int, int]]:
    """Edges (u < v) of the tree decoded from ``integers(0, n, size=n - 2)`` of ``default_rng(seed)``.

    Linear-time decode: a pointer walks over the smallest available leaf.
    """
    if n <= 2:
        return {(0, 1)} if n == 2 else set()
    seq = np.random.default_rng(seed).integers(0, n, size=n - 2)
    deg = np.ones(n, dtype=np.int64)
    for x in seq:
        deg[x] += 1
    edges = []
    ptr = 0
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        x = int(x)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return {(min(e), max(e)) for e in edges}


def parse_edge_list(text: str, limit: int | None = None) -> tuple[int, set[tuple[int, int]]]:
    """The node count and the edges (u < v) of an edge list, one line at a time.

    A header count above ``limit``, if given, raises a plain ValueError
    (worded as the package's size guard) before any edge line is read.
    """
    n: int | None = None
    edge_set: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise EdgeListError(line_no, f"expected header 'n <count>', got {line!r}")
            try:
                if not tokens[1].isascii() or "+" in line or "_" in line:
                    raise ValueError
                n = int(tokens[1])
            except ValueError:
                raise EdgeListError(line_no, f"node count is not an integer: {tokens[1]!r}") from None
            if n < 1:
                raise EdgeListError(line_no, f"node count must be >= 1, got {n}")
            if limit is not None and n > limit:
                raise ValueError(f"n={n} exceeds the limit of {limit} nodes for dense n x n computations")
            continue
        if len(tokens) != 2:
            raise EdgeListError(line_no, f"expected 'u v', got {line!r}")
        try:
            if not (tokens[0].isascii() and tokens[1].isascii()) or "+" in line or "_" in line:
                raise ValueError
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(line_no, f"non-integer endpoint in {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(line_no, f"endpoint out of range [0, {n}) in {line!r}")
        if u == v:
            raise EdgeListError(line_no, f"self-loop at node {u}")
        edge_set.add((u, v) if u < v else (v, u))
    if n is None:
        raise EdgeListError(0, "empty input: missing 'n <count>' header")
    return n, edge_set


def csr(n: int, edges) -> tuple[list[int], list[int]]:
    """The one CSR (indptr, indices) of n nodes and distinct edges (u, v): sorted neighbour lists."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    indptr = [0]
    for row in rows:
        indptr.append(indptr[-1] + len(row))
    return indptr, [v for row in rows for v in sorted(row)]


def serialize_edge_list(n: int, edges: set[tuple[int, int]]) -> str:
    """The edge-list text of n nodes and edges (u < v), in lexicographic order."""
    flat = tuple(chain.from_iterable(sorted(edges)))
    return f"n {n}\n" + ("%d %d\n" * len(edges)) % flat
