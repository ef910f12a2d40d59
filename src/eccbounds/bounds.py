"""Lower bounds on algebraic connectivity from eccentricity counts.

Every bound here is a guaranteed lower bound on lambda2 for simple undirected
graphs. ``GraphAnalysis`` holds what every bound and certificate of one graph
is computed from (distances, eccentricities, power graphs, Laplacians and
their spectra), each computed once. ``solve_stacked`` decomposes the spectra
that the checks of several analyses of one order read, in shared stacked
eigensolves; ``GraphAnalysis.solve`` is that call on one analysis. The g1 and
g2 certificate matrices go first, as integer matrices, to one batched
verified Cholesky (``spectral.prove_psd_stack``); a proved certificate is PSD
by proof (method "cholesky", min eigenvalue exactly 0.0), and only the others
join the eigensolve (method "eigen").
``evaluate_all`` reads one analysis and collects the bound values, slacks,
and tightness flags into a single report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .graphs import Graph
from .metrics import (
    UNREACHABLE,
    all_pairs_distances,
    count_s_ell,
    eccentricity_profile,
    power_adjacency,
    power_graph,
)
from .spectral import (
    PSD,
    CertificateResult,
    adjacency_laplacian,
    eigen_decompose_stack,
    lambda2,
    laplacian,
    prove_psd_stack,
    psd_certificate,
    psd_tolerance,
)

#: Fixed report order for bound values, slacks, and tightness flags.
BOUND_NAMES = ("s1", "s2_over_n", "g1", "g1_diam", "mohar", "g2", "lu")

#: Relative size of ``tolerance``.
TIGHTNESS_REL_TOL = 1e-9


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # shared by every check on this graph
    return a


#: Budget of input matrices per stacked eigensolve (1 MB): 900 matrices at
#: n = 12, one at n = 362; a larger matrix is solved alone. The solve's
#: temporaries are a few times its stack, so this bounds its memory too.
_STACK_BYTES = 1 << 20
#: Kinds of the spectra solved per ell: the g1 and g2 certificate matrices and L(G^ell).
_PER_ELL = ("g1", "g2", "power")
#: The kinds whose matrix is a PSD certificate, tried first by ``prove_psd_stack``.
_CERTIFICATES = ("g1", "g2")
#: Key of L(G) among an analysis's solved spectra; the others are (kind, ell).
_LAMBDA2 = ("lambda2", 0)


def stack_members(n: int) -> int:
    """How many n x n matrices one stacked eigensolve holds: _STACK_BYTES // (8 n^2), at least 1."""
    return max(1, _STACK_BYTES // (8 * n * n))


class GraphAnalysis:
    """The distance matrix, eccentricity profile, power graphs and spectra of one graph.

    Distances and the profile are computed on construction; ``power(ell)`` and
    ``power_laplacian(ell)`` (L(G^ell), read-only), each read from the
    distances alone, are memoised per ell; ``laplacian`` (L(G), read-only) is
    computed on first use. ``solve(ells)`` proves or decomposes every spectrum
    the checks of those ells read, in stacks of at most 1 MB, and memoises
    only the results: lambda2, the g1 and g2 ``CertificateResult`` and
    lambda2(G^ell) per ell;
    ``solve_stacked`` does the same for several analyses at once. Pass one
    analysis to ``evaluate_all``, the certificates and ``check_chain`` so they
    share this work instead of each repeating it.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self.n = g.n
        self.m = g.m
        self.dist = all_pairs_distances(g)
        self.profile = eccentricity_profile(self.dist)
        self.connected = self.profile.diameter != UNREACHABLE
        self._powers: dict[int, Graph] = {}
        self._power_laplacians: dict[int, np.ndarray] = {}
        self._solved: dict[tuple[str, int], float | CertificateResult] = {}

    def power(self, ell: int) -> Graph:
        if ell not in self._powers:
            self._powers[ell] = power_graph(self.dist, ell)
        return self._powers[ell]

    def power_laplacian(self, ell: int) -> np.ndarray:
        """L(G^ell) from the distance mask 1 <= d <= ell, bitwise ``laplacian(power_graph(dist, ell))``."""
        if ell not in self._power_laplacians:
            self._power_laplacians[ell] = _read_only(adjacency_laplacian(power_adjacency(self.dist, ell)))
        return self._power_laplacians[ell]

    @cached_property
    def laplacian(self) -> np.ndarray:
        return _read_only(laplacian(self.graph))

    @property
    def lambda2(self) -> float:
        """lambda2(G): from ``solve`` if it ran, else from one ``spectral.lambda2`` solve."""
        if _LAMBDA2 not in self._solved:
            self._solved[_LAMBDA2] = lambda2(self.graph)
        return self._solved[_LAMBDA2]

    def pending(self, ells: Iterable[int]) -> list[tuple[str, int]]:
        """The keys of the spectra still unknown that the checks of ``ells`` read, in solve order.

        That is L(G) if lambda2 is not known yet and, for a connected graph,
        the g1 matrix, the g2 matrix and L(G^ell) of each ell.
        """
        if self.n < 2:
            raise ValueError(f"solve needs n >= 2, got n={self.n}")
        keys = [] if _LAMBDA2 in self._solved else [_LAMBDA2]
        if self.connected:
            keys += [(kind, ell) for ell in dict.fromkeys(ells) for kind in _PER_ELL]
        return [key for key in keys if key not in self._solved]

    def solve(self, ells: Iterable[int]) -> None:
        """Decompose, in stacked calls, each spectrum still unknown that the checks of ``ells`` read.

        ``solve_stacked`` on this analysis alone.
        """
        solve_stacked([(self, ells)])

    def spectrum(self, kind: str, ell: int) -> float | CertificateResult:
        """The ``CertificateResult`` of the g1 or g2 matrix, or lambda2(G^ell) for "power".

        Read from the memo; a miss solves that one matrix alone.
        """
        key = (kind, ell)
        if key not in self._solved:
            _decompose([(self, key)])
        return self._solved[key]

    def _matrix(self, kind: str, ell: int) -> np.ndarray:
        """The matrix of one solved kind: L(G), L(G^ell), or the g1 or g2 matrix."""
        if kind == "lambda2":
            return self.laplacian
        if kind == "power":
            return self.power_laplacian(ell)
        return self._coefficients(kind, ell)[0] * self.laplacian - self.power_laplacian(ell)

    def _coefficients(self, kind: str, ell: int) -> tuple[float, int, int]:
        """(coeff, icoeff, scale) of the g1 or g2 matrix coeff L(G) - L(G^ell).

        Its ``scale`` multiple is the integer matrix icoeff L(G) - scale L(G^ell):
        4 (gamma L(G) - L(G^ell)) = ((ell - 2) n^2 + 4n) L(G) - 4 L(G^ell) for g1,
        the matrix itself, with icoeff = 1 + ell (e(G^ell) - m), for g2.
        """
        if kind == "g1":
            return gamma(self.n, ell), (ell - 2) * self.n * self.n + 4 * self.n, 4
        icoeff = 1 + ell * (self.power(ell).m - self.m)
        return float(icoeff), icoeff, 1


def solve_stacked(pairs: Iterable[tuple[GraphAnalysis, Iterable[int]]]) -> None:
    """Decompose the pending spectra of every (analysis, ells) pair in shared stacked eigensolves.

    The keys are taken analysis by analysis, each in ``pending`` order, and cut
    into stacks of ``stack_members(n)``; a stack may hold several analyses'
    matrices, and each result goes into its own analysis's memo. Every member
    is bitwise the one a lone solve gives, so grouping never changes a result.
    Raises ValueError if the analyses differ in n or one has n < 2.
    """
    pairs = list(pairs)
    orders = {a.n for a, _ in pairs}
    if len(orders) > 1:
        raise ValueError(f"solve_stacked needs analyses of one order, got n in {sorted(orders)}")
    _decompose([(a, key) for a, ells in pairs for key in a.pending(ells)])


def _decompose(items: list[tuple[GraphAnalysis, tuple[str, int]]]) -> None:
    """Solve the spectra of the (analysis, key) items in stacks of ``stack_members``, each built when solved.

    The certificates go first to ``_prove``; the items it leaves unsolved are
    then eigensolved in their order: a certificate gets ``psd_certificate``'s
    verdict (method "eigen"), L(G) and L(G^ell) their lambda2.
    """
    if not items:
        return
    per_stack = stack_members(items[0][0].n)
    certificates = [(a, key) for a, key in items if key[0] in _CERTIFICATES]
    for start in range(0, len(certificates), per_stack):
        _prove(certificates[start : start + per_stack])
    items = [(a, key) for a, key in items if key not in a._solved]
    for start in range(0, len(items), per_stack):
        chunk = items[start : start + per_stack]
        matrices = [a._matrix(*key) for a, key in chunk]
        stack = np.array(matrices) if len(matrices) > 1 else matrices[0][None]
        for (a, key), m, summary in zip(chunk, stack, eigen_decompose_stack(stack)):
            certificate = key[0] in _CERTIFICATES
            a._solved[key] = psd_certificate(m, summary) if certificate else float(summary.eigenvalues[1])


def _prove(chunk: list[tuple[GraphAnalysis, tuple[str, int]]]) -> None:
    """Record PSD, method "cholesky", for each certificate of the chunk that ``prove_psd_stack`` proves.

    Each goes to the proof as its integer matrix icoeff L(G) - scale L(G^ell)
    (``GraphAnalysis._coefficients``), built in one stacked step. A member is
    left out, before any float conversion, unless n (|icoeff| + scale)(n - 1)
    <= 2^53, which keeps every entry, row sum and trace exact (a huge ell can
    break it). A proved result records the min eigenvalue 0.0, exact since
    the matrix kills the constant vector and is PSD, and the ``psd_tolerance``
    of the float matrix the eigensolver would have taken.
    """
    n = chunk[0][0].n
    terms = [(a, key, *a._coefficients(*key)) for a, key in chunk]
    terms = [t for t in terms if n * (abs(t[3]) + t[4]) * (n - 1) <= 2**53]
    if not terms:
        return
    analyses, keys, *factors = zip(*terms)
    lap = np.array([a.laplacian for a in analyses])
    power = np.array([a.power_laplacian(ell) for a, (_, ell) in zip(analyses, keys)])
    coeff, icoeff, scale = np.array(factors, dtype=np.float64)[:, :, None, None]
    proved = prove_psd_stack(icoeff * lap - scale * power)
    tolerances = psd_tolerance(coeff * lap - power)  # of every member: cheaper than picking the proved
    for a, key, won, tol in zip(analyses, keys, proved.tolist(), tolerances.tolist()):
        if won:
            a._solved[key] = CertificateResult(0.0, tol, PSD, method="cholesky")


def analysis_for(task: str, g: Graph | GraphAnalysis, ell: int, min_ell: int) -> GraphAnalysis:
    """Check n >= 2 and ell >= min_ell for ``task``; return g, or a fresh analysis of a Graph."""
    if g.n < 2:
        raise ValueError(f"{task} needs n >= 2, got n={g.n}")
    if ell < min_ell:
        raise ValueError(f"ell must be >= {min_ell}, got {ell}")
    return g if isinstance(g, GraphAnalysis) else GraphAnalysis(g)


def evaluate_all(g: Graph | GraphAnalysis, ell: int) -> BoundReport:
    """Evaluate every bound on one graph, reusing ``g``'s analysis if given one.

    Disconnected graphs are reported, not rejected: lambda2 is exactly 0, the
    eccentricity counts are all zero, the count-based bounds evaluate to 0, and
    the diameter-dependent bounds are marked not applicable.
    """
    a = analysis_for("bound evaluation", g, ell, 2)
    s1 = count_s_ell(a.profile, 1)
    s2 = count_s_ell(a.profile, 2)
    s_ell = count_s_ell(a.profile, ell)
    power = a.power(ell)
    e_complement = a.n * (a.n - 1) // 2 - a.m
    lam = a.lambda2 if a.connected else 0.0
    d = a.profile.diameter if a.connected else None

    bounds: dict[str, float | None] = {
        "s1": bound_s1(s1),
        "s2_over_n": bound_s2_over_n(s2, a.n),
        "g1": bound_g1(a.n, ell, s_ell),
        "g1_diam": bound_g1_diam(a.n, d) if a.connected else None,
        "mohar": bound_mohar(a.n, d) if a.connected else None,
        "g2": bound_g2(s_ell, ell, power.m, a.m),
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
        e_power=power.m,
        e_complement=e_complement,
        lambda2=lam,
        bounds=bounds,
        slacks=slacks,
        tight=tight,
    )
