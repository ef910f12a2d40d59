"""Simple undirected graphs: construction, parsing, serializing and generators.

Graphs are immutable after construction and stored in CSR form (``indptr``,
``indices``) with neighbor lists sorted per node, so iteration order is
deterministic. One core, ``_csr_batch``, builds the CSRs of several graphs
from one sort of int64 keys over their packed node ids; every graph built
from pairs is its batch of one. ``Graph.from_adjacency`` checks an
adjacency matrix and shares the CSR step (``_members``).
``generate_batch`` draws several graphs of a family from one Generator, the
Erdos-Renyi ones in one ``Generator.random`` call (``erdos_renyi_batch``),
which come as ``DrawnGraphs``: a list that keeps the packed CSR of its one
sort for the distance search. ``generate`` and ``erdos_renyi`` are their
batches of one, so a lone graph and a batch member are bitwise the same draw.
``check_node_count`` refuses n above ``MAX_NODES``, the node limit of every
dense n x n computation; the edge-list reader applies it to the header count.
"""

from __future__ import annotations

import heapq
import io
import operator
import re
from itertools import chain
from typing import Final, Iterable, Iterator, TextIO

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

        Duplicate pairs and orientation collapse. The CSR core on a batch of one.
        """
        return _csr_batch(n, 1, pairs)[0]

    @classmethod
    def from_adjacency(cls, adj: np.ndarray) -> "Graph":
        """Build from an adjacency matrix (must be exactly symmetric, zero diagonal).

        Every nonzero entry is an edge. Symmetry is tested on the nonzeros
        only, ``adj[i, j] == adj[j, i]`` for each nonzero (i, j), read by flat
        index in O(m): an entry whose mirror is zero or another value (NaN is
        never equal) fails it, so the verdict is that of
        ``np.array_equal(adj, adj.T)``. The CSR step is ``_members``.
        """
        n = adj.shape[0]
        if adj.shape != (n, n):
            raise ValueError("adjacency matrix must be square")
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        if adj.diagonal().any():
            raise ValueError("adjacency matrix has a nonzero diagonal (self-loop)")
        flat = np.flatnonzero(adj)  # row-major: row i's columns sorted
        rows, cols = np.divmod(flat, n)
        mirror = flat + (cols - rows) * (n - 1)  # (j, i) of (i, j)
        if not np.array_equal(adj.take(flat), adj.take(mirror)):
            raise ValueError("adjacency matrix is not symmetric")
        return _members(n, 1, rows, cols)[0]

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


def _csr_batch(n: int, count: int, pairs: np.ndarray) -> list[Graph]:
    """The CSRs of ``count`` graphs on n nodes from one key sort of their packed pairs.

    ``pairs`` is an (m, 2) int64 array of packed endpoints without self-loops:
    member b's node u is b * n + u, and both ends of a pair lie in one member.
    Duplicate pairs and orientation collapse. The one check of n >= 1 for
    every graph built from pairs.
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    size = count * n
    if size > _MAX_KEYED_NODES:
        raise ValueError(f"node count must be <= {_MAX_KEYED_NODES}, got {size}")
    # each pair {u, v} becomes the entries u -> v and v -> u; sorted by the key
    # row * size + column, every neighbor list is sorted and repeats are adjacent
    entries = np.concatenate((pairs, pairs[:, ::-1]))
    keys = entries[:, 0] * size + entries[:, 1]
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return _members(n, count, *np.divmod(keys[first], size))


def _members(n: int, count: int, rows: np.ndarray, cols: np.ndarray) -> list[Graph]:
    """The ``count`` graphs of the sorted packed CSR entries (rows, cols): row and column b * n + i are
    member b's node i. Several come as ``DrawnGraphs``, which keep this packed CSR."""
    degrees = np.bincount(rows, minlength=count * n)
    indptr = np.zeros(count * n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    if count == 1:
        return [Graph(n, indptr, cols)]
    local = np.zeros((count, n + 1), dtype=np.int64)  # member b holds rows b * n .. b * n + n - 1
    np.cumsum(degrees.reshape(count, n), axis=1, out=local[:, 1:])
    nodes, at = cols % n, indptr[::n].tolist()  # member b's entries are at[b] .. at[b + 1]
    return DrawnGraphs([Graph(n, ptr, nodes[a:b]) for ptr, a, b in zip(local, at, at[1:])], indptr, cols)


class DrawnGraphs(list):
    """Graphs of one order n built together, as a list that keeps their packed CSR (row b * n + i is member b's
    node i). ``packed`` is that CSR while the list holds those graphs, or equal ones, in their order, else None;
    ``metrics.all_pairs_distances_stack`` searches it as it is."""

    __slots__ = ("_members", "_packed")

    def __init__(self, members: list[Graph], indptr: np.ndarray, indices: np.ndarray):
        super().__init__(members)
        indptr.flags.writeable = indices.flags.writeable = False
        self._members, self._packed = tuple(members), (indptr, indices)

    @property
    def packed(self) -> tuple[np.ndarray, np.ndarray] | None:
        return self._packed if tuple(self) == self._members else None  # same graphs, same order


#: A number of the edge-list format: ASCII digits with an optional leading '-'.
_INTEGER = re.compile(r"-?[0-9]+")

#: Byte classes of the bulk reader: digits, spaces and tabs, "\n", every other byte.
_DIGIT, _SPACE, _NEWLINE, _OTHER = range(4)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_BYTE_CLASS[list(b" \t")] = _SPACE
_BYTE_CLASS[ord("\n")] = _NEWLINE
_BYTE_CLASS.flags.writeable = False  # shared by every parse in the process
#: The line breaks of ``str.splitlines`` other than "\n" and "\r".
_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
#: Digits a number may have in the bulk reader: int64 holds every such number
#: (``np.fromstring`` saturates beyond it).
_MAX_DIGITS = 18
#: A comment line, newline first: a '#' after nothing but spaces and tabs, to the end of its line.
#: The pattern starts on a literal "\n", so the regex engine looks only at line starts.
_COMMENT_LINE = re.compile(rb"\n[ \t]*#[^\n]*")


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


def _header(lines: Iterable[str]) -> tuple[int, int]:
    """(line number, node count) of the first stripped line that is neither blank nor a comment.

    Refuses a count above MAX_NODES (``check_node_count``).
    """
    for line_no, line in enumerate(map(str.strip, lines), start=1):
        if line and line[0] != "#":
            n = _node_count(line_no, line)
            check_node_count(n)
            return line_no, n
    raise ParseError(0, "empty input: missing 'n <count>' header")


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

    A plain file is read in bulk (``_read_bytes``: "\r\n" made "\n", comment
    lines cut, one scan of the digits): its lines end at "\n" or "\r\n", and
    every line after the header is blank, a comment or two numbers of at most
    18 digits split by spaces and tabs, with its endpoints in range and
    distinct. Anything else (another line break or separator, a sign, a
    non-ASCII byte or a '#' outside a comment line, a longer number, a bad
    edge, text that does not encode) goes to the line-at-a-time reader
    (``_read_lines``), which gives the same graph or names the first bad line.
    """
    g = _read_bytes(text)
    return _read_lines(text) if g is None else g


def _read_lines(text: str) -> Graph:
    """The line-at-a-time reader: every line stripped and read on its own."""
    lines = text.splitlines()
    start, n = _header(lines)
    numbered = enumerate(map(str.strip, lines[start:]), start=start + 1)
    pairs = [_edge(i, line, n) for i, line in numbered if line and line[0] != "#"]
    return Graph._from_pairs(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))


def _read_bytes(text: str) -> Graph | None:
    """The bulk reader: the graph of a plain edge list, or None to leave the text to ``_read_lines``.

    Text with a lone "\r" or a ``str.splitlines`` break other than "\n" and
    "\r\n" is left to the line reader. In the rest "\r\n" becomes "\n", and
    ``_header`` reads the header from the UTF-8 bytes. One pattern that starts
    on a "\n" (``_COMMENT_LINE``) cuts the comment lines after it, over the body
    with a "\n" put in front; only digits, spaces,
    tabs and "\n" may remain (``_BYTE_CLASS``), so a '#' after a number goes to
    the line reader. Numbers are the runs of the digit mask, ``searchsorted`` on
    the newline positions gives each one's line, and each line holding one must
    hold two. One ``np.fromstring`` call reads them, and the range and
    self-loop tests run on whole arrays.
    """
    if any(c in text for c in _BREAKS):
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None  # a lone "\r" ends a line
        text = text.replace("\r\n", "\n")
    try:
        data = io.BytesIO(text.encode())
    except UnicodeEncodeError:  # a lone surrogate
        return None
    _, n = _header(line.decode() for line in data)
    body = data.read()
    if b"#" in body:
        body = _COMMENT_LINE.sub(b"\n", b"\n" + body)[1:]  # the "\n" put in front starts the first line
    kind = _BYTE_CLASS.take(np.frombuffer(body, dtype=np.uint8))
    if kind.max(initial=_DIGIT) == _OTHER:
        return None
    digit = np.zeros(kind.size + 2, dtype=bool)
    np.equal(kind, _DIGIT, out=digit[1:-1])
    runs = np.flatnonzero(digit[1:] != digit[:-1])  # each number's first byte, then its end
    firsts, stops = runs[::2], runs[1::2]
    line_of = np.searchsorted(np.flatnonzero(kind == _NEWLINE), firsts)
    # two numbers a line: runs 2k and 2k + 1 share a line, and run 2k + 2 is on a later one
    if line_of.size % 2 or (line_of[::2] != line_of[1::2]).any() or (line_of[2::2] == line_of[1:-1:2]).any():
        return None
    if (stops - firsts > _MAX_DIGITS).any():
        return None
    if not firsts.size:
        return Graph._from_pairs(n, np.empty((0, 2), dtype=np.int64))
    # any whitespace separates
    pairs = np.fromstring(body[firsts[0]:stops[-1]], dtype=np.int64, sep=" ").reshape(-1, 2)
    if pairs.max() >= n or (pairs[:, 0] == pairs[:, 1]).any():
        return None
    return Graph._from_pairs(n, pairs)


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list; edges emitted in lexicographic order."""
    out = io.StringIO()
    serialize_edges(g.n, [g._upper_edges()], out)
    return out.getvalue()


def serialize_edges(n: int, blocks: Iterable[tuple[np.ndarray, np.ndarray]], out: TextIO) -> None:
    """Write the edge-list text of n nodes and the edges of ``blocks`` to ``out``, in the order given.

    Two fixed-width bytes tables, built once from the digits ``np.unravel_index``
    gives every node, hold each node's ``b"u "`` and ``b"v\\n"``, right-aligned
    after NUL padding. Each block (us, vs) is written as it is taken: one gather
    per table into a (k, 2) array of cells, one compress (a bytes ``replace``)
    that drops the NUL bytes, one decode. No digit or separator is a NUL byte,
    so dropping them is exact.
    """
    width = len(str(n - 1))
    table = np.empty((2, n, width + 1), dtype=np.uint8)
    table[:, :, :width] = np.add(np.unravel_index(np.arange(n), (10,) * width), ord("0")).T  # every node's digits
    for k in range(1, width):  # a node below 10**k has a NUL, not a "0", at place 10**k
        table[:, : 10**k, width - 1 - k] = 0
    table[0, :, width] = ord(" ")
    table[1, :, width] = ord("\n")
    table = table.view(f"S{width + 1}")
    firsts, seconds = table[0, :, 0], table[1, :, 0]
    out.write(f"n {n}\n")
    for us, vs in blocks:
        cells = np.empty((us.size, 2), dtype=firsts.dtype)
        firsts.take(us, out=cells[:, 0])
        seconds.take(vs, out=cells[:, 1])
        out.write(cells.tobytes().replace(b"\0", b"").decode("ascii"))


def load_edge_list(path: str) -> Graph:
    """``parse_edge_list`` on a UTF-8 file, read in text mode.

    Text mode's universal newlines turn every line end ("\r\n", a lone "\r")
    into "\n", so the bulk reader's "\r" step serves only strings passed to
    ``parse_edge_list`` directly.
    """
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
    The batch of one of ``erdos_renyi_batch``.
    """
    return erdos_renyi_batch(n, p, 1, seed)[0]


def erdos_renyi_batch(n: int, p: float, count: int, seed=None) -> list[Graph]:
    """``count`` draws of G(n, p) in order from one Generator, with one draw and one key sort.

    One ``rng.random((count, n(n-1)/2))`` call takes the doubles that ``count``
    successive ``erdos_renyi(n, p, rng)`` calls would, in their order, and
    leaves the Generator in the same state, so member b is bitwise the b-th
    lone draw. Pair k of the upper triangle (row-major) is an edge of member b
    when double (b, k) is below p; all members' CSRs come from one sort
    (``_csr_batch``), as ``DrawnGraphs`` that keep the packed CSR of that sort
    for ``metrics.all_pairs_distances_stack``. n and p are checked before any draw.
    """
    if n < 1:
        raise ValueError(f"erdos_renyi needs n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    upper = np.argwhere(~np.tri(n, dtype=bool))  # the pairs u < v, row-major
    members, edges = np.nonzero(rng.random((count, len(upper))) < p)
    return _csr_batch(n, count, upper[edges] + (members * n)[:, None])


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


#: The families without randomness, by name.
_DETERMINISTIC = {"path": path_graph, "cycle": cycle_graph, "complete": complete_graph, "star": star_graph}


def generate(family: str, n: int, p: float | None = None, seed=None) -> Graph:
    """Build a graph from a named family; deterministic for fixed (family, n, p, seed).

    The batch of one of ``generate_batch``.
    """
    return generate_batch(family, n, 1, p, seed)[0]


def generate_batch(family: str, n: int, count: int, p: float | None = None, seed=None) -> list[Graph]:
    """``count`` graphs of a named family, drawn in order from one Generator made from ``seed``.

    Member b is bitwise the b-th of ``count`` successive ``generate`` calls
    on that Generator. Erdos-Renyi members come from one draw
    (``erdos_renyi_batch``), random trees one at a time; a deterministic
    family's one graph is built once and repeated (graphs are immutable).
    The family and ``p`` are checked before any draw.
    """
    if family == "erdos_renyi":
        if p is None:
            raise ValueError("erdos_renyi requires an edge probability p")
        return erdos_renyi_batch(n, p, count, seed)
    if family == "random_tree":
        rng = np.random.default_rng(seed)
        return [random_tree(n, rng) for _ in range(count)]
    if family not in _DETERMINISTIC:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return [_DETERMINISTIC[family](n)] * count

