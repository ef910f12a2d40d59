"""Simple undirected graphs: construction, parsing, serializing and generators.

Graphs are immutable after construction and stored in CSR form (``indptr``,
``indices``) with neighbor lists sorted per node, so iteration order is
deterministic.
``check_node_count`` refuses n above ``MAX_NODES``, the node limit of every
dense n x n computation; the edge-list reader applies it to the header count.
"""

from __future__ import annotations

import heapq
import operator
import re
from itertools import chain
from typing import Final, Iterable, Iterator

import numpy as np

FAMILIES = ("path", "cycle", "complete", "star", "erdos_renyi", "random_tree")

#: Largest node count the dense n x n computations accept. At 5,000 nodes the
#: int8 distance matrix takes 25 MB and a float64 Laplacian 200 MB, and one
#: eigensolve, 3.3 s at n = 2,000 and O(n^3), takes about 50 s. Ten times as many
#: nodes would take 2.5 GB of distances, 20 GB per Laplacian and half a day per solve.
MAX_NODES: Final[int] = 5000

#: Largest n whose CSR entry keys row * n + column fit int64 (isqrt(2**63 - 1)).
#: Its indptr alone would take 24 GB.
_MAX_KEYED_NODES = 3_037_000_499


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
        """Build a graph from integer (u, v) pairs; duplicates and orientation collapse."""
        pairs: list[tuple[int, int]] = []
        for edge in edges:
            try:
                u, v = map(operator.index, edge)
            except TypeError:
                raise ValueError(f"non-integer endpoint in edge {edge!r}") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            pairs.append((u, v))
        flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs))
        return cls._from_pairs(n, flat.reshape(-1, 2))

    @classmethod
    def _from_pairs(cls, n: int, pairs: np.ndarray) -> "Graph":
        """CSR from an (m, 2) int64 array of in-range endpoints without self-loops.

        Duplicate pairs and orientation collapse. The one check of n >= 1 for
        every graph built from pairs.
        """
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        if n > _MAX_KEYED_NODES:
            raise ValueError(f"node count must be <= {_MAX_KEYED_NODES}, got {n}")
        # each pair {u, v} becomes the entries u -> v and v -> u; sorted by the key
        # row * n + column, every neighbor list is sorted and repeats are adjacent
        entries = np.concatenate((pairs, pairs[:, ::-1]))
        keys = entries[:, 0] * n + entries[:, 1]
        keys.sort()
        first = np.empty(keys.size, dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        rows, cols = np.divmod(keys[first], n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(n, indptr, cols)

    @classmethod
    def from_adjacency(cls, adj: np.ndarray) -> "Graph":
        """Build from an adjacency matrix (must be exactly symmetric, zero diagonal).

        Every nonzero entry is an edge. Symmetry is tested on the nonzeros only,
        ``adj[i, j] == adj[j, i]`` for each nonzero (i, j), read by flat index
        in O(m): an entry whose mirror is zero or another value (NaN is never
        equal) fails it, so the verdict is that of ``np.array_equal(adj, adj.T)``.
        """
        n = adj.shape[0]
        if adj.shape != (n, n):
            raise ValueError("adjacency matrix must be square")
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        if adj.diagonal().any():
            raise ValueError("adjacency matrix has a nonzero diagonal (self-loop)")
        flat = np.flatnonzero(adj)  # row-major: each row's columns sorted
        rows, cols = np.divmod(flat, n)
        if not np.array_equal(adj.take(flat), adj.take(cols * n + rows)):
            raise ValueError("adjacency matrix is not symmetric")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(n, indptr, cols)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

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


#: A number of the edge-list format: ASCII digits with an optional leading '-'.
_INTEGER = re.compile(r"-?[0-9]+")
#: Stripped edge lines joined by "\n": two numbers a line, split by spaces and tabs.
#: At most 18 digits a number, so int64 holds every one (numpy saturates beyond it).
_EDGE_LINES = re.compile(
    r"(?:-?[0-9]{1,18}[ \t]+-?[0-9]{1,18}(?:\n-?[0-9]{1,18}[ \t]+-?[0-9]{1,18})*)?"
)


def _read_int(token: str) -> int:
    """``int`` on a number of the format; ValueError otherwise ('+3', '1_0', '٤', too long)."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(token)
    return int(token)


def _node_count(line_no: int, line: str) -> int:
    """The count of a stripped header line ``n <count>``, or the ParseError naming it."""
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != "n":
        raise ParseError(line_no, f"expected header 'n <count>', got {line!r}")
    try:
        n = _read_int(tokens[1])
    except ValueError:
        raise ParseError(line_no, f"node count is not an integer: {tokens[1]!r}") from None
    if n < 1:
        raise ParseError(line_no, f"node count must be >= 1, got {n}")
    return n


def _edge(line_no: int, line: str, n: int) -> tuple[int, int]:
    """The endpoints of a stripped edge line ``u v``, or the ParseError naming it."""
    tokens = line.split()
    if len(tokens) != 2:
        raise ParseError(line_no, f"expected 'u v', got {line!r}")
    try:
        u, v = _read_int(tokens[0]), _read_int(tokens[1])
    except ValueError:
        raise ParseError(line_no, f"non-integer endpoint in {line!r}") from None
    if not (0 <= u < n and 0 <= v < n):
        raise ParseError(line_no, f"endpoint out of range [0, {n}) in {line!r}")
    if u == v:
        raise ParseError(line_no, f"self-loop at node {u}")
    return u, v


def check_node_count(n: int) -> None:
    """Refuse n above MAX_NODES (read at call time), before any n x n array is allocated."""
    if n > MAX_NODES:
        raise ValueError(f"n={n} exceeds the limit of {MAX_NODES} nodes for dense n x n computations")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header line ``n <count>``, then ``u v`` lines.

    A header count above ``MAX_NODES`` is refused with ValueError
    (``check_node_count``) before any edge line is read.

    Lines starting with '#' and blank lines are skipped; lines end wherever
    ``str.splitlines`` ends them. Node indices are 0-based. Duplicate edges
    (in either orientation) collapse. Numbers are ASCII digits with an
    optional leading '-' (``int`` alone takes '+3', '1_0', '٤').

    The edge lines are checked in bulk: one regex match over all of them (two
    numbers of at most 18 digits a line, split by spaces and tabs), one
    ``np.fromstring`` conversion that must give two numbers a line, and range
    and self-loop tests on whole arrays. Anything else (other separators,
    longer numbers) or a failed check sends the lines to the line-at-a-time
    reader, which gives the same graph or names the first bad line.
    """
    lines = text.splitlines()
    for start, header in enumerate(map(str.strip, lines), start=1):
        if header and header[0] != "#":
            break
    else:
        raise ParseError(0, "empty input: missing 'n <count>' header")
    n = _node_count(start, header)
    check_node_count(n)
    body = [line for line in map(str.strip, lines[start:]) if line and line[0] != "#"]
    joined = "\n".join(body)
    if _EDGE_LINES.fullmatch(joined):
        flat = np.fromstring(joined, dtype=np.int64, sep=" ")  # any whitespace separates
        if flat.size == 2 * len(body):
            pairs = flat.reshape(-1, 2)
            if ((pairs >= 0) & (pairs < n)).all() and (pairs[:, 0] != pairs[:, 1]).all():
                return Graph._from_pairs(n, pairs)
    # a bulk check failed: read the lines one by one, so the first bad one raises
    numbered = enumerate(map(str.strip, lines[start:]), start=start + 1)
    pairs = [_edge(i, line, n) for i, line in numbered if line and line[0] != "#"]
    return Graph._from_pairs(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list; edges emitted in lexicographic order."""
    return serialize_edges(g.n, *g._upper_edges())


def serialize_edges(n: int, us: np.ndarray, vs: np.ndarray) -> str:
    """The edge-list text of n nodes and the edges (us[k], vs[k]), in the order given.

    Each node's ``"u "`` and ``"v\n"`` strings are built once, and the edge
    lines are gathered from that table by the endpoint arrays.
    """
    table = np.array([f"{i} " for i in range(n)] + [f"{i}\n" for i in range(n)], dtype=object)
    cells = np.empty((us.size, 2), dtype=np.int64)
    cells[:, 0] = us
    np.add(vs, n, out=cells[:, 1])
    return f"n {n}\n" + "".join(table.take(cells.ravel()).tolist())


def load_edge_list(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def path_graph(n: int) -> Graph:
    i = np.arange(n - 1)
    return Graph._from_pairs(n, np.column_stack((i, i + 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle graph needs n >= 3, got {n}")
    i = np.arange(n)
    return Graph._from_pairs(n, np.column_stack((i, (i + 1) % n)))


def complete_graph(n: int) -> Graph:
    return Graph._from_pairs(n, np.column_stack(np.triu_indices(n, k=1)))


def star_graph(n: int) -> Graph:
    """Star with center 0 and n-1 leaves."""
    leaves = np.arange(1, n)
    return Graph._from_pairs(n, np.column_stack((np.zeros_like(leaves), leaves)))


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
    return Graph._from_pairs(n, np.column_stack((iu[mask], ju[mask])))


def random_tree(n: int, seed=None) -> Graph:
    """Uniform random labeled tree: a random Prüfer sequence, decoded with a min-heap of leaves."""
    if n < 1:
        raise ValueError(f"random_tree needs n >= 1, got {n}")
    if n == 1:
        return path_graph(1)
    seq = np.random.default_rng(seed).integers(0, n, size=n - 2)
    deg = (np.bincount(seq, minlength=n) + 1).tolist()
    leaves = [i for i, d in enumerate(deg) if d == 1]  # ascending, so already a heap
    edges = []
    for x in seq.tolist():
        edges.append((heapq.heappop(leaves), x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((leaves[0], leaves[1]))  # the last two nodes left
    return Graph._from_pairs(n, np.array(edges, dtype=np.int64))


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
