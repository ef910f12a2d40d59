"""Simple undirected graphs: construction, parsing, generators, complement.

Graphs are immutable after construction and stored in CSR form (``indptr``,
``indices``) with neighbor lists sorted per node, so iteration order is
deterministic and membership tests are O(log deg).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

import numpy as np

FAMILIES = ("path", "cycle", "complete", "star", "erdos_renyi", "random_tree")


class ParseError(ValueError):
    """Raised for malformed edge-list input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class Graph:
    """Simple undirected graph on nodes 0..n-1.

    No self-loops, no parallel edges; the neighbor structure is symmetric by
    construction. Do not mutate the CSR arrays.
    """

    __slots__ = ("n", "m", "indptr", "indices")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        self.m = int(indices.shape[0]) // 2
        self.indptr = indptr
        self.indices = indices
        indptr.flags.writeable = False
        indices.flags.writeable = False

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from (u, v) pairs; duplicates and orientation collapse."""
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            seen.add((u, v) if u < v else (v, u))
        return cls._from_edge_set(n, seen)

    @classmethod
    def _from_edge_set(cls, n: int, edge_set: set[tuple[int, int]]) -> "Graph":
        pairs = np.fromiter(
            chain.from_iterable(edge_set), dtype=np.int64, count=2 * len(edge_set)
        ).reshape(-1, 2)
        # each edge {u, v} becomes the entries u -> v and v -> u; sorting them by
        # (row, column) leaves every neighbor list sorted
        rows = pairs.ravel()
        cols = pairs[:, ::-1].ravel()
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(n, indptr, cols[np.lexsort((cols, rows))])

    @classmethod
    def from_adjacency(cls, adj: np.ndarray) -> "Graph":
        """Build from a boolean adjacency matrix (must be symmetric, zero diagonal)."""
        n = adj.shape[0]
        if adj.shape != (n, n):
            raise ValueError("adjacency matrix must be square")
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        if adj.diagonal().any():
            raise ValueError("adjacency matrix has a nonzero diagonal (self-loop)")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency matrix is not symmetric")
        rows, cols = np.nonzero(adj)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        # np.nonzero returns row-major order, so each row's columns are sorted
        return cls(n, indptr, cols.astype(np.int64))

    def degree(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor indices of node i (read-only view)."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        k = np.searchsorted(row, v)
        return k < row.shape[0] and row[k] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        us, vs = self._upper_edges()
        return zip(us.tolist(), vs.tolist())

    def _upper_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays (u, v) of the CSR entries with u < v, in CSR order."""
        rows = np.repeat(np.arange(self.n), self.degrees())
        upper = rows < self.indices
        return rows[upper], self.indices[upper]

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean adjacency matrix."""
        a = np.zeros((self.n, self.n), dtype=bool)
        rows = np.repeat(np.arange(self.n), self.degrees())
        a[rows, self.indices] = True
        return a

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.m, self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def validate(g: Graph) -> None:
    """Check the structural invariants; raises AssertionError on violation.

    Intended for tests and for vetting graphs built by external code paths.
    Every check runs on whole arrays; a failure names the first offending row
    or edge.
    """
    n, indptr, indices = g.n, g.indptr, g.indices
    if not (
        n >= 1
        and indptr.shape == (n + 1,)
        and indptr[0] == 0
        and indptr[-1] == indices.shape[0] == 2 * g.m
        and np.all(np.diff(indptr) >= 0)
    ):
        raise AssertionError(f"malformed CSR arrays for n={n}")
    rows = np.repeat(np.arange(n), np.diff(indptr))
    unsorted = np.flatnonzero((rows[1:] == rows[:-1]) & (indices[1:] <= indices[:-1]))
    if unsorted.size:
        raise AssertionError(f"row {rows[unsorted[0]]} not strictly sorted (dup or unsorted)")
    loops = np.flatnonzero(rows == indices)
    if loops.size:
        raise AssertionError(f"self-loop at {rows[loops[0]]}")
    outside = np.flatnonzero((indices < 0) | (indices >= n))
    if outside.size:
        k = outside[0]
        raise AssertionError(f"row {rows[k]} has neighbor {indices[k]} outside [0, {n})")
    # the (row, col) pairs are lexsorted already; symmetric iff the (col, row)
    # pairs, lexsorted, are the same list
    order = np.lexsort((rows, indices))
    t_rows, t_cols = indices[order], rows[order]
    mismatch = np.flatnonzero((t_rows != rows) | (t_cols != indices))
    if mismatch.size:
        k = mismatch[0]
        # the smaller pair at the first mismatch lacks its reverse
        edge, reverse = (rows[k], indices[k]), (t_rows[k], t_cols[k])
        u, v = edge if edge < reverse else reverse[::-1]
        raise AssertionError(f"asymmetric edge ({u}, {v})")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header line ``n <count>``, then ``u v`` lines.

    Lines starting with '#' and blank lines are skipped. Node indices are
    0-based. Duplicate edges (in either orientation) collapse.
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
                raise ParseError(line_no, f"expected header 'n <count>', got {line!r}")
            try:
                n = int(tokens[1])
            except ValueError:
                raise ParseError(line_no, f"node count is not an integer: {tokens[1]!r}") from None
            if n < 1:
                raise ParseError(line_no, f"node count must be >= 1, got {n}")
            continue
        if len(tokens) != 2:
            raise ParseError(line_no, f"expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(line_no, f"non-integer endpoint in {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(line_no, f"endpoint out of range [0, {n}) in {line!r}")
        if u == v:
            raise ParseError(line_no, f"self-loop at node {u}")
        edge_set.add((u, v) if u < v else (v, u))
    if n is None:
        raise ParseError(0, "empty input: missing 'n <count>' header")
    return Graph._from_edge_set(n, edge_set)


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list; edges emitted in lexicographic order."""
    flat = np.column_stack(g._upper_edges()).ravel().tolist()
    return f"n {g.n}\n" + ("%d %d\n" * g.m) % tuple(flat)


def load_edge_list(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path graph needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle graph needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> Graph:
    """Star with center 0 and n-1 leaves."""
    if n < 1:
        raise ValueError(f"star graph needs n >= 1, got {n}")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def erdos_renyi(n: int, p: float, seed=None) -> Graph:
    """G(n, p): each of the n(n-1)/2 pairs is an edge independently with probability p.

    ``seed`` may be an int or a numpy Generator; fixed seed gives a fixed edge set.
    """
    if n < 1:
        raise ValueError(f"erdos_renyi needs n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    return Graph.from_edges(n, zip(iu[mask].tolist(), ju[mask].tolist()))


def random_tree(n: int, seed=None) -> Graph:
    """Uniform random labeled tree, built by decoding a random Prüfer sequence."""
    if n < 1:
        raise ValueError(f"random_tree needs n >= 1, got {n}")
    if n == 1:
        return Graph.from_edges(1, [])
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    rng = np.random.default_rng(seed)
    seq = rng.integers(0, n, size=n - 2)
    deg = np.ones(n, dtype=np.int64)
    for x in seq:
        deg[x] += 1
    edges = []
    # linear-time decode: walk a pointer over the smallest available leaf
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
    return Graph.from_edges(n, edges)


def generate(family: str, n: int, p: float | None = None, seed=None) -> Graph:
    """Build a graph from a named family; deterministic for fixed (family, n, p, seed)."""
    if family == "path":
        return path_graph(n)
    if family == "cycle":
        return cycle_graph(n)
    if family == "complete":
        return complete_graph(n)
    if family == "star":
        return star_graph(n)
    if family == "erdos_renyi":
        if p is None:
            raise ValueError("erdos_renyi requires an edge probability p")
        return erdos_renyi(n, p, seed)
    if family == "random_tree":
        return random_tree(n, seed)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def complement(g: Graph) -> Graph:
    """Graph with edge {i, j} exactly where g has none (i != j)."""
    adj = g.adjacency_matrix()
    comp = ~adj
    np.fill_diagonal(comp, False)
    return Graph.from_adjacency(comp)
