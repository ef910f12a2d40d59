"""Independent reference implementations used as oracles by the test suite.

Nothing here shares code with the package under test: distances come from
Floyd-Warshall instead of BFS, spectra come from scipy's implicit-QR LAPACK
driver (``dsyev``) or integer characteristic-polynomial arithmetic instead of
the package's numpy ``eigh`` (divide and conquer, ``dsyevd``) and its
Rayleigh quotients, and expected eigenvalues come from closed forms. PSD
questions about rational matrices are settled by exact LDL^T elimination on
``Fraction``s instead of the package's floating-point Cholesky proof, and the
certificate matrices are rebuilt in ``Fraction``s from the paper's formulas.
The package's eigensolver returns eigenpairs only; ``eigen_quality`` audits
them (residual and orthogonality) with its own numpy arithmetic, and
``off_diagonal_fraction`` measures how near a basis comes to the solver's
stopping rule. The edge-list
reader and writer are the line-at-a-time ``int`` and ``"%d %d\n"`` versions
that the package's bulk parser and byte-table serializer replaced, and
random trees come from the pointer-walk Prüfer decode that the package's
min-heap decode replaced. ``csr`` builds a graph's compressed rows from
Python lists; a valid edge set has exactly one, so comparing a graph's arrays
with it checks every structural invariant at once. ``chunk_items`` cuts solve
chunks by the per-item rule that the package's per-analysis planner replaced,
from the unsettled items that ``pending_items`` lists.

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
    """All-pairs shortest paths on a 0/1 adjacency matrix, or on each member of a (B, n, n) stack; inf = unreachable."""
    n = adj.shape[-1]
    dist = np.where(adj > 0, 1.0, np.inf)
    dist[..., range(n), range(n)] = 0.0
    for k in range(n):
        dist = np.minimum(dist, dist[..., :, k : k + 1] + dist[..., k : k + 1, :])
    return dist


def connected(adj: np.ndarray) -> bool:
    """Every pair joined by a path, by Floyd-Warshall."""
    return bool(np.isfinite(floyd_warshall(adj)).all())


def power_adjacency(adj: np.ndarray, ell: int) -> np.ndarray:
    """Brute-force power graph: edge wherever 1 <= distance <= ell."""
    dist = floyd_warshall(adj)
    return ((dist >= 1) & (dist <= ell)).astype(np.int64)


def power_counts(adj: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """(e(G^ell), s1(G^ell)) of a 0/1 adjacency matrix, or of each member of a stack: the edges of the
    brute-force power graph, and its nodes of eccentricity at most 1 by a second Floyd-Warshall over it."""
    power = power_adjacency(adj, ell)
    return power.sum(axis=(-2, -1)) // 2, (eccentricities(power) <= 1).sum(axis=-1)


def complete_power(adj: np.ndarray, ell: int) -> bool:
    """G^ell is complete: every pair of distinct nodes lies within distance ell, by Floyd-Warshall."""
    n = adj.shape[-1]
    return int(power_adjacency(adj, ell).sum()) == n * (n - 1)


def eccentricities(adj: np.ndarray) -> np.ndarray:
    """Per-node eccentricities, of a matrix or of each member of a stack; inf where some node is unreachable."""
    return floyd_warshall(adj).max(axis=-1)


def sorted_eccentricities(adj: np.ndarray, unreachable: int) -> np.ndarray:
    """Eccentricities ascending, of a matrix or of each member of a stack, with ``unreachable`` for inf."""
    ecc = eccentricities(adj)
    return np.sort(np.where(np.isinf(ecc), unreachable, ecc), axis=-1)


def sorted_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, by implicit QR (scipy's own LAPACK ``dsyev``).

    The package's solver starts from numpy's divide-and-conquer ``eigh``; a
    different algorithm from a different build keeps the oracle independent.
    """
    return scipy.linalg.eigvalsh(a, driver="ev")


def off_diagonal_fraction(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """||offdiag(Q^T A Q)||_F / ||A||_F of each member of a (B, n, n) stack A with its basis Q.

    The solver raises unless this is at most its stopping rule's relative
    tolerance, so the fraction over that tolerance is the headroom a basis leaves.
    """
    w = q.transpose(0, 2, 1) @ a @ q
    nodes = np.arange(a.shape[-1])
    w[:, nodes, nodes] = 0.0
    return np.linalg.norm(w, axis=(1, 2)) / np.linalg.norm(a, axis=(1, 2))


def inf_norm(a: np.ndarray) -> float:
    """Matrix infinity norm (max absolute row sum)."""
    if a.size == 0:
        return 0.0
    return float(np.abs(a).sum(axis=1).max())


def eigen_quality(a: np.ndarray, w: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """(relative residual, orthogonality error) of the eigenpairs (w, Q) of the symmetric matrix A.

    The relative residual is max|A q_i - w_i q_i| over every pair and entry,
    over max(1, ||A||_inf); the orthogonality error is max|Q^T Q - I|. Both
    are 0.0 for the empty matrix.
    """
    a, w, q = (np.asarray(x, dtype=np.float64) for x in (a, w, q))
    residual = np.abs(a @ q - q * w).max(initial=0.0) / max(1.0, inf_norm(a))
    orthogonality = np.abs(q.T @ q - np.eye(len(q))).max(initial=0.0)
    return float(residual), float(orthogonality)


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


def exact_definiteness(a) -> tuple[bool, bool]:
    """(PSD, positive definite) of a symmetric rational matrix, by exact LDL^T on ``Fraction``s.

    Elimination without pivoting: a negative pivot proves the matrix is not
    PSD, and so does a zero pivot whose row is not zero (a 2 x 2 principal
    minor [[0, x], [x, y]] is -x^2 < 0); a zero pivot with a zero row makes it
    singular and is skipped.
    """
    m = [[Fraction(x) for x in row] for row in a]
    definite = True
    for k, row in enumerate(m):
        pivot = row[k]
        if pivot < 0 or (pivot == 0 and any(row[k + 1 :])):
            return False, False
        if pivot == 0:
            definite = False
            continue
        for i in range(k + 1, len(m)):
            factor = m[i][k] / pivot
            for j in range(k + 1, len(m)):
                m[i][j] -= factor * row[j]
    return True, definite


def certificate_matrix(adj: np.ndarray, ell: int, kind: str) -> list[list[Fraction]]:
    """The g1 or g2 certificate matrix c L(G) - L(G^ell) in ``Fraction``s, from the paper's formulas.

    c is gamma = (ell - 2 + 4/n) n^2 / 4 for g1 and 1 + ell (e(G^ell) - m) for
    g2; G^ell comes from Floyd-Warshall, each Laplacian from its adjacency.
    """
    n = adj.shape[0]
    power = power_adjacency(adj, ell)

    def lap(b):
        return [[Fraction(int(b[i].sum()) if i == j else -int(b[i, j])) for j in range(n)] for i in range(n)]

    if kind == "g1":
        c = (ell - 2 + Fraction(4, n)) * n * n / 4
    else:
        c = 1 + ell * (int(power.sum()) // 2 - int(adj.sum()) // 2)
    base, top = lap(adj), lap(power)
    return [[c * x - y for x, y in zip(row, top_row)] for row, top_row in zip(base, top)]


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


def pending_items(pairs) -> list[tuple]:
    """The unsettled (analysis, ell, task) items of (analysis, ells) pairs, in listing order, each once.

    Per analysis, ell = 1 first and then each ell as listed: for a listed ell
    its "power" counts and, if G is connected, its certificates ("g1" needs
    ell >= 2); then the "lambda2" of G^ell, for ell = 1 or a connected G. An
    item whose result an analysis's memo already holds is skipped.
    """
    items: dict[tuple, None] = {}
    for a, ells in pairs:
        ells = list(ells)
        for ell in [1, *ells]:
            tasks = []
            if ell in ells:
                tasks.append("power")
                if a.connected:
                    tasks += ["g1", "g2"] if ell >= 2 else ["g2"]
            if ell == 1 or a.connected:
                tasks.append("lambda2")
            memos = {"power": (a._counts, ell), "lambda2": (a._lambda2s, ell)}
            for task in tasks:
                memo, key = memos.get(task, (a._certificates, (task, ell)))
                if key not in memo:
                    items.setdefault((a, ell, task))
    return list(items)


def chunk_items(items: list[tuple], budget: int) -> list[list[tuple]]:
    """The solve chunks of distinct (analysis, ell, task) items by the per-item rule, item after item.

    An item reads the key (analysis, ell), and a "g1" or "g2" certificate
    (analysis, 1) too. It joins the open chunk unless that would take the
    chunk's distinct keys above ``budget``; then the chunk closes and the item
    opens the next one.
    """
    chunks: list[list[tuple]] = []
    keys: set = set()
    for item in items:
        a, ell, task = item
        reads = {(a, 1), (a, ell)} if task in ("g1", "g2") else {(a, ell)}
        if not chunks or len(keys | reads) > budget:
            chunks.append([])
            keys = set()
        chunks[-1].append(item)
        keys |= reads
    return chunks


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
