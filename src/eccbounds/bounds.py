"""Lower bounds on algebraic connectivity from eccentricity counts.

Every bound here is a guaranteed lower bound on lambda2 for simple undirected
graphs. ``GraphAnalysis`` holds what every bound and certificate of one graph
is read from (distances and sorted eccentricities), each once, and memoises
lambda2(G^ell) by ell (1 is G), the g1 and g2 certificates by (kind, ell) and
the counts e(G^ell) and s1(G^ell) by ell; it holds no matrix.
``GraphAnalysis.batch`` analyses several graphs of one order from one distance
search and one eccentricity sort; ``solve_stacked`` fills their memos a chunk
at a time from one mask broadcast per chunk, which serves the counts, the
proofs and the eigensolve (no G^ell becomes a ``Graph``; a complete one gets
lambda2 n exactly). The certificates go, as integer matrices, to one batched
verified Cholesky (``spectral.prove_psd_stack``): a proved one is PSD by proof
(method "cholesky", min eigenvalue exactly 0.0), any other gets
``spectral.is_psd`` ("eigen"). Only Laplacians reach the stacked eigensolves.
``evaluate_all`` reads one analysis and collects the bound values, slacks,
and tightness flags into a single report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Final, Iterable, Iterator, Sequence

import numpy as np

from .graphs import Graph
from .metrics import (
    UNREACHABLE,
    all_pairs_distances,
    all_pairs_distances_stack,
    count_s_ell,
    power_adjacency,
    power_graph,
)
from .metrics import eccentricities as sorted_eccentricities  # the name is GraphAnalysis's keyword
from .spectral import (
    PSD,
    CertificateResult,
    adjacency_laplacian,
    eigen_decompose_stack,
    is_psd,
    lambda2,
    prove_psd_stack,
    psd_tolerance,
)

#: Fixed report order for bound values, slacks, and tightness flags.
BOUND_NAMES = ("s1", "s2_over_n", "g1", "g1_diam", "mohar", "g2", "lu")

#: Relative size of ``tolerance``.
TIGHTNESS_REL_TOL = 1e-9

#: Largest ell the bounds and certificates accept (``analysis_for``). Each float made
#: from ell stays finite up to n = MAX_NODES: gamma and the g2 coefficient
#: 1 + ell (e(G^ell) - m) are below ell n^2 - 1, so an entry of either certificate
#: matrix coeff L(G) - L(G^ell) is below ell n^3, its infinity norm below ell n^4 and
#: its squared Frobenius norm (the eigensolver sums squares) below ell^2 n^8, 3.9e289
#: at n = 5,000. ``power`` does no float arithmetic on ell and has no limit.
MAX_ELL: Final[int] = 10**130


def tolerance(x: float) -> float:
    """Float cut of every scalar theorem check about x: TIGHTNESS_REL_TOL * max(1, x).

    Absolute below 1, so unlike a pure ratio cut it never drops under the eigensolver's
    roundoff (about eps * ||L||). PSD verdicts keep the matrix-scaled ``psd_tolerance``.
    """
    return TIGHTNESS_REL_TOL * max(1.0, x)


def gamma(n: int, ell: int) -> float:
    """Scaling constant (ell - 2 + 4/n) * n^2 / 4; strictly positive.

    This is the factor by which the base Laplacian must be inflated to
    dominate the Laplacian of the ell-th power graph.
    """
    if n < 2:
        raise ValueError(f"gamma needs n >= 2, got {n}")
    if ell < 2:
        raise ValueError(f"gamma needs ell >= 2, got {ell}")
    return (ell - 2 + 4.0 / n) * (n * n) / 4.0


def bound_s1(s1: int) -> float:
    """Count of nodes adjacent to everything else, as a lambda2 lower bound."""
    if s1 < 0:
        raise ValueError(f"s1 must be >= 0, got {s1}")
    return float(s1)


def bound_s2_over_n(s2: int, n: int) -> float:
    """Classical bound: nodes of eccentricity at most 2, divided by n."""
    if n < 2:
        raise ValueError(f"bound_s2_over_n needs n >= 2, got {n}")
    if not 0 <= s2 <= n:
        raise ValueError(f"s2 must be in [0, {n}], got {s2}")
    return s2 / n


def bound_g1(n: int, ell: int, s_ell: int) -> float:
    """Eccentricity-count bound: s_ell / gamma(n, ell).

    At ell = 2 this reduces to the classical s2 / n bound.
    """
    if not 0 <= s_ell <= n:
        raise ValueError(f"s_ell must be in [0, {n}], got {s_ell}")
    return s_ell / gamma(n, ell)


def _check_diameter(name: str, n: int, d: int) -> None:
    """The domain of the diameter bounds: n >= 2 and a finite diameter >= 1."""
    if n < 2:
        raise ValueError(f"{name} needs n >= 2, got {n}")
    if d == UNREACHABLE:
        raise ValueError("diameter undefined for disconnected graph")
    if d < 1:
        raise ValueError(f"diameter must be >= 1, got {d}")


def bound_g1_diam(n: int, d: int) -> float:
    """Diameter corollary of the eccentricity-count bound: 4 / ((d - 2 + 4/n) * n).

    At d = 1 the formula degenerates (the graph is complete), so the exact
    algebraic connectivity n is returned instead; it is the sharp lower bound
    for every graph of diameter 1.
    """
    _check_diameter("bound_g1_diam", n, d)
    if d == 1:
        return float(n)
    return 4.0 / ((d - 2 + 4.0 / n) * n)


def bound_mohar(n: int, d: int) -> float:
    """Well-known diameter bound 4 / (d * n)."""
    _check_diameter("bound_mohar", n, d)
    return 4.0 / (d * n)


def bound_g2(s_ell: int, ell: int, e_power: int, m: int) -> float:
    """Edge-growth bound: s_ell / (1 + ell * (e(G^ell) - m)).

    At ell = 1 the power graph is the graph itself and this reduces to s1.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if not 0 <= m <= e_power:
        raise ValueError(f"need 0 <= m <= e_power, got m={m}, e_power={e_power}")
    return s_ell / (1 + ell * (e_power - m))


def bound_lu(n: int, d: int, e_complement: int) -> float:
    """Complement-edge bound n / (1 + d * e(complement))."""
    _check_diameter("bound_lu", n, d)
    if e_complement < 0:
        raise ValueError(f"complement edge count must be >= 0, got {e_complement}")
    return n / (1 + d * e_complement)


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one (graph, ell) pair, with slacks and tightness.

    ``diameter`` is None for disconnected graphs, and diameter-dependent
    entries of ``bounds``/``slacks`` are then None ("not applicable"). The
    ``tight`` dict covers exactly the applicable bounds.
    """

    n: int
    m: int
    ell: int
    s1: int
    s2: int
    s_ell: int
    diameter: int | None
    e_power: int
    e_complement: int
    lambda2: float
    bounds: dict[str, float | None]
    slacks: dict[str, float | None]
    tight: dict[str, bool]


#: Budget of input matrices per stacked eigensolve (1 MB): 900 matrices at
#: n = 12, one at n = 362; a larger matrix is solved alone. The solve's
#: temporaries are a few times its stack, so this bounds its memory too.
#: A solve chunk reads at most max(2, stack_members(n)) (analysis, ell) keys,
#: since a certificate reads two, builds at most one Laplacian a key and proves
#: its certificates stack_members(n) at a time.
_STACK_BYTES = 1 << 20


def stack_members(n: int) -> int:
    """How many n x n matrices one stacked eigensolve holds: _STACK_BYTES // (8 n^2), at least 1."""
    return max(1, _STACK_BYTES // (8 * n * n))


class GraphAnalysis:
    """The distance matrix, sorted eccentricities, power counts and spectra of one graph.

    Distances and the ascending ``eccentricities`` list (``diameter`` is its
    last entry, UNREACHABLE for a disconnected graph) are computed on
    construction: by one BFS of ``g`` alone or, through ``batch``, by one
    search and one eccentricity sort over several graphs. The results
    ``power_lambda2(ell)`` (``lambda2`` is ell = 1) and ``certificate(kind,
    ell)`` are memoised, and so are the counts of G^ell a solve chunk fills;
    masks and Laplacians are not. A result miss is a solve chunk of that one
    result; ``solve_stacked`` fills the memos of several analyses at once.
    Pass one analysis to ``evaluate_all``, the certificates and
    ``check_chain`` to share this work.
    """

    def __init__(self, g: Graph, *, dist: np.ndarray | None = None, eccentricities: list[int] | None = None):
        """Analyse ``g``; ``dist`` and ``eccentricities``, when given, are its read-only distance matrix
        and its ascending eccentricities, and neither BFS nor eccentricity sort runs."""
        self.graph = g
        self.n = g.n
        self.m = g.m
        self.dist = all_pairs_distances(g) if dist is None else dist
        self.eccentricities = sorted_eccentricities(self.dist) if eccentricities is None else eccentricities
        self.diameter = self.eccentricities[-1]
        self.connected = self.diameter != UNREACHABLE
        self._powers: dict[int, Graph] = {}
        self._counts: dict[int, tuple[int, int]] = {}  # (e(G^ell), s1(G^ell)) by ell, from a solve chunk
        self._lambda2s: dict[int, float] = {}
        self._certificates: dict[tuple[str, int], CertificateResult] = {}

    @classmethod
    def batch(cls, graphs: Sequence[Graph]) -> list[GraphAnalysis]:
        """One analysis per graph, all of one order: one ``all_pairs_distances_stack`` search and one
        ``eccentricities`` sort of the stack.

        Each member's distances, in the type that the batch's largest distance
        needs, and eccentricities equal those of ``GraphAnalysis(g)``, so every
        result read from them is bitwise the same.
        """
        dist = all_pairs_distances_stack(graphs)
        return [cls(g, dist=d, eccentricities=e) for g, d, e in zip(graphs, dist, sorted_eccentricities(dist))]

    def power(self, ell: int) -> Graph:
        """G^ell, built once per ell by ``power_graph(dist, ell)``; a solve chunk builds none."""
        if ell not in self._powers:
            self._powers[ell] = power_graph(self.dist, ell)
        return self._powers[ell]

    def power_edges(self, ell: int) -> int:
        """e(G^ell): from the counts a solve chunk filled, else the edges of ``power(ell)``."""
        return self._counts[ell][0] if ell in self._counts else self.power(ell).m

    def power_s1(self, ell: int) -> int:
        """s1(G^ell), its nodes of degree n - 1: from a solve chunk's counts, else from ``power(ell)``."""
        return self._counts[ell][1] if ell in self._counts else self.power(ell).degrees().tolist().count(self.n - 1)

    @property
    def lambda2(self) -> float:
        """lambda2(G): from the memo if a solve filled it, else from one ``spectral.lambda2`` solve."""
        if 1 not in self._lambda2s:
            self._lambda2s[1] = lambda2(self.graph)
        return self._lambda2s[1]

    def power_lambda2(self, ell: int) -> float:
        """lambda2(G^ell), from the memo or from a solve chunk of L(G^ell) alone (n if G^ell is complete)."""
        if ell not in self._lambda2s:
            _settle([(self, ell, "lambda2")])
        return self._lambda2s[ell]

    def certificate(self, kind: str, ell: int) -> CertificateResult:
        """The ``CertificateResult`` of the g1 or g2 matrix at ell, from the memo or from a solve chunk of it
        alone, which also fills the counts of G^ell when the g2 coefficient needs them."""
        if (kind, ell) not in self._certificates:
            fill = [(self, ell, "power")] if kind == "g2" and ell not in self._counts else []
            _settle([*fill, (self, ell, kind)])
        return self._certificates[kind, ell]

    def _coefficients(self, kind: str, ell: int) -> tuple[float, int, int]:
        """(coeff, icoeff, scale) of the g1 or g2 matrix coeff L(G) - L(G^ell).

        Its ``scale`` multiple is the integer matrix icoeff L(G) - scale L(G^ell):
        4 (gamma L(G) - L(G^ell)) = ((ell - 2) n^2 + 4n) L(G) - 4 L(G^ell) for g1,
        the matrix itself, with icoeff = 1 + ell (e(G^ell) - m), for g2.
        """
        if kind == "g1":
            return gamma(self.n, ell), (ell - 2) * self.n * self.n + 4 * self.n, 4
        icoeff = 1 + ell * (self.power_edges(ell) - self.m)
        return float(icoeff), icoeff, 1


#: The certificate tasks of a solve chunk.
_KINDS = ("g1", "g2")


def solve_stacked(pairs: Iterable[tuple[GraphAnalysis, Iterable[int]]]) -> None:
    """Settle what the checks of every (analysis, ells) pair read: the counts of G^ell, certificates and lambda2s.

    The unsettled work of each pair (``_pending``) is planned analysis by
    analysis into chunks of at most max(2, ``stack_members(n)``) distinct
    (analysis, ell) keys, ell = 1 standing for G: an analysis whose keys fit
    the open chunk joins it whole, one that straddles the budget item by item,
    and one listed again adds only what it did not list before. Each chunk is
    settled from one mask broadcast over its keys (``_settle``), and each
    result goes into its own analysis's memo. Every member is bitwise the one
    a lone solve gives, so the chunks never change a result. Raises ValueError
    if the analyses differ in n or one has n < 2.
    """
    pairs = [(a, list(ells)) for a, ells in pairs]
    orders = {a.n for a, _ in pairs}
    if len(orders) > 1:
        raise ValueError(f"solve_stacked needs analyses of one order, got n in {sorted(orders)}")
    n = orders.pop() if orders else 2
    if n < 2:
        raise ValueError(f"solve needs n >= 2, got n={n}")
    budget = max(2, stack_members(n))  # a certificate reads two Laplacians
    chunk: list[tuple[GraphAnalysis, int, str]] = []
    keys: set[tuple[GraphAnalysis, int]] = set()
    planned: set[GraphAnalysis] = set()
    for a, ells in pairs:
        items = list(_pending(a, ells))  # of an analysis listed before, what settled is skipped here
        if a in planned:  # and what waits in the open chunk here
            waiting = set(chunk)
            items = [item for item in items if item not in waiting]
        planned.add(a)
        reads = {(a, ell) for _, ell, _ in items} | {(a, 1) for _, _, task in items if task in _KINDS}
        runs = [(items, reads)]  # whole, or item by item when it straddles the budget
        if len(keys) + len(reads - keys) > budget:
            runs = [([(a, ell, task)], {(a, 1), (a, ell)} if task in _KINDS else {(a, ell)})
                    for _, ell, task in items]
        for run, more in runs:
            if len(keys) + len(more - keys) > budget:
                _settle(chunk)
                chunk, keys = [], set()
            chunk += run
            keys |= more
    if chunk:
        _settle(chunk)


def _pending(a: GraphAnalysis, ells: list[int]) -> Iterator[tuple[GraphAnalysis, int, str]]:
    """The unsettled work of (a, ells) as (analysis, ell, task) items, L(G)'s lambda2 first.

    Per ell: "power", the counts e(G^ell) and s1(G^ell) for the checks; for a
    connected graph the certificates "g1" (ell >= 2 only: gamma needs it) and
    "g2", whose coefficient reads e(G^ell); and "lambda2", of L(G) and, for a
    connected graph, of each L(G^ell). Settled ones are skipped.
    """
    wanted = set(ells)
    for ell in dict.fromkeys([1, *ells]):
        if ell in wanted:
            if ell not in a._counts:
                yield a, ell, "power"
            if a.connected:
                kinds = _KINDS if ell >= 2 else ("g2",)
                yield from ((a, ell, kind) for kind in kinds if (kind, ell) not in a._certificates)
        if (ell == 1 or a.connected) and ell not in a._lambda2s:
            yield a, ell, "lambda2"


def _settle(chunk: list[tuple[GraphAnalysis, int, str]]) -> None:
    """Settle a solve chunk's distinct (analysis, ell, task) items from one mask broadcast over their keys.

    One pass sorts the items into the lambda2s to eigensolve, the proofs and
    the rest: the "power" counts and the lambda2s of a complete G^ell (ell >= 2,
    G connected of diameter at most ell), exactly n, that of K_n. The distinct
    (analysis, ell) keys, ell = 1 for G, are indexed once, those the eigensolve
    and then the proofs (L(G) and L(G^ell)) read first, and get their masks
    1 <= d <= ell in one ``power_adjacency`` broadcast over their distance
    matrices, stacked in the widest of their types (which changes no
    comparison); each mask row is bitwise the lone ``power_adjacency(dist, ell)``.
    A "power" key's counts are e(G^ell), half its mask's degree sum, and
    s1(G^ell), its rows of degree n - 1. The leading rows become Laplacians in
    one broadcast, each bitwise the lone ``adjacency_laplacian`` of its mask,
    eigensolved ``stack_members(n)`` at a time as views of the one stack.

    The certificates go, ``stack_members(n)`` at a time, to the proof as
    their integer matrices icoeff L(G) - scale L(G^ell)
    (``GraphAnalysis._coefficients``), from the rows of their L(G) and
    L(G^ell), unless, before any float conversion, n (|icoeff| + scale)(n - 1)
    > 2^53 (a huge ell): below that every entry, row sum and trace is exact. A
    proved one (method "cholesky") records the min eigenvalue 0.0, exact since
    the matrix kills the constant vector and is PSD, and the ``psd_tolerance``
    of its float matrix coeff L(G) - L(G^ell); any other gets ``is_psd`` of that
    matrix ("eigen"), a lone solve that is bitwise a stacked one.
    """
    n = chunk[0][0].n
    per_stack = stack_members(n)
    solves, proofs, reads, rest = [], [], [], []
    for a, ell, task in chunk:
        if task in _KINDS:
            proofs.append((a, (task, ell)))
            reads += [(a, 1), (a, ell)]
        elif task == "power" or ell >= 2 and a.connected and a.diameter <= ell:
            rest.append((a, ell, task))
        else:
            solves.append((a, ell))
    keys = dict.fromkeys([*solves, *reads])  # the keys whose Laplacians are built come first
    built = len(keys)
    keys.update(((a, ell), None) for a, ell, _ in rest)
    row = dict(zip(keys, range(len(keys))))
    masks = power_adjacency(np.array([a.dist for a, _ in keys]), [ell for _, ell in keys])
    degrees = masks.sum(axis=2)
    edges = (degrees.sum(axis=1) // 2).tolist()
    counts = list(zip(edges, (degrees == n - 1).sum(axis=1).tolist()))
    for a, ell, task in rest:
        if task == "power":
            a._counts[ell] = counts[row[a, ell]]
        else:
            a._lambda2s[ell] = float(n)
    laps = adjacency_laplacian(masks[:built]) if built else None
    del masks
    for start in range(0, len(solves), per_stack):
        part = solves[start : start + per_stack]
        # a comprehension, so that no eigenvector stack outlives it
        values = [float(s.eigenvalues[1]) for s in eigen_decompose_stack(laps[start : start + len(part)])]
        for (a, ell), value in zip(part, values):
            a._lambda2s[ell] = value
    for start in range(0, len(proofs), per_stack):
        part = proofs[start : start + per_stack]
        terms = [a._coefficients(*key) for a, key in part]
        fit = np.flatnonzero([n * (abs(icoeff) + scale) * (n - 1) <= 2**53 for _, icoeff, scale in terms])
        coeff, icoeff, scale = np.array(terms, dtype=np.float64).T[:, :, None, None]
        # the rows of each member's L(G) and L(G^ell), gathered inside each expression, so that
        # numpy computes into the gathered copies instead of keeping them
        lap = np.array([row[a, 1] for a, _ in part])
        power = np.array([row[a, ell] for a, (_, ell) in part])
        proved = np.zeros(len(part), dtype=bool)
        if fit.size:
            proved[fit] = prove_psd_stack(icoeff[fit] * laps[lap[fit]] - scale[fit] * laps[power[fit]])
        floats = coeff * laps[lap] - laps[power]
        tolerances = psd_tolerance(floats)  # of every member: cheaper than picking the proved
        for (a, key), won, m, tol in zip(part, proved.tolist(), floats, tolerances):
            a._certificates[key] = CertificateResult(0.0, tol, PSD, method="cholesky") if won else is_psd(m)


def analysis_for(task: str, g: Graph | GraphAnalysis, ell: int, min_ell: int) -> GraphAnalysis:
    """Check n >= 2 and min_ell <= ell <= MAX_ELL for ``task``; return g, or a fresh analysis of a Graph."""
    if g.n < 2:
        raise ValueError(f"{task} needs n >= 2, got n={g.n}")
    if ell < min_ell:
        raise ValueError(f"ell must be >= {min_ell}, got {ell}")
    if ell > MAX_ELL:
        raise ValueError(f"ell must be <= {MAX_ELL:.0e}, got {ell}")
    return g if isinstance(g, GraphAnalysis) else GraphAnalysis(g)


def evaluate_all(g: Graph | GraphAnalysis, ell: int) -> BoundReport:
    """Evaluate every bound on one graph, reusing ``g``'s analysis if given one.

    Disconnected graphs are reported, not rejected: lambda2 is exactly 0, the
    eccentricity counts are all zero, the count-based bounds evaluate to 0, and
    the diameter-dependent bounds are marked not applicable.
    """
    a = analysis_for("bound evaluation", g, ell, 2)
    s1 = count_s_ell(a.eccentricities, 1)
    s2 = count_s_ell(a.eccentricities, 2)
    s_ell = count_s_ell(a.eccentricities, ell)
    lam = a.lambda2 if a.connected else 0.0
    e_power = a.power_edges(ell)  # after the solve, so a lone graph's G^ell is not held through it
    e_complement = a.n * (a.n - 1) // 2 - a.m
    d = a.diameter if a.connected else None

    bounds: dict[str, float | None] = {
        "s1": bound_s1(s1),
        "s2_over_n": bound_s2_over_n(s2, a.n),
        "g1": bound_g1(a.n, ell, s_ell),
        "g1_diam": bound_g1_diam(a.n, d) if a.connected else None,
        "mohar": bound_mohar(a.n, d) if a.connected else None,
        "g2": bound_g2(s_ell, ell, e_power, a.m),
        "lu": bound_lu(a.n, d, e_complement) if a.connected else None,
    }
    slacks: dict[str, float | None] = {
        name: (lam - value) if value is not None else None for name, value in bounds.items()
    }
    tight = {name: slack <= tolerance(lam) for name, slack in slacks.items() if slack is not None}
    return BoundReport(
        n=a.n,
        m=a.m,
        ell=ell,
        s1=s1,
        s2=s2,
        s_ell=s_ell,
        diameter=d,
        e_power=e_power,
        e_complement=e_complement,
        lambda2=lam,
        bounds=bounds,
        slacks=slacks,
        tight=tight,
    )
