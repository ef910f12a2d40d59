"""Numerical certificates for the matrix inequalities behind the bounds.

Each eccentricity-count bound rests on a matrix being positive semi-definite:

* ``gamma(n, ell) * L(G) - L(G^ell)`` for the gamma-scaled bound, and
* ``(1 + ell * (e(G^ell) - m)) * L(G) - L(G^ell)`` for the edge-growth bound.

A ``GraphAnalysis`` certifies them on concrete graphs; the functions here
read its result memos (``certificate``, ``power_lambda2``) and its counts of
G^ell (``power_s1``). ``bounds.solve_stacked`` fills them a chunk at a time,
from one mask broadcast per chunk that serves the proofs, the eigensolve and
the counts; a miss is settled as a chunk of one. The matrices are built for
their chunk and dropped with it. Each certificate matrix is first
sent, as an integer multiple of itself, to a verified Cholesky
(``spectral.prove_psd_stack``). A proved matrix gets
``CertificateResult.method`` "cholesky", verdict PSD and a minimum eigenvalue
of exactly 0.0. Only an unproved one (a tight or singular matrix, say) is
eigensolved alone by ``spectral.is_psd`` and judged by the scaled tolerance
("eigen"). ``check_chain`` verifies, within ``bounds.tolerance``, the spectral
chain connecting the two Laplacians: lambda2(G) >= lambda2(G^ell) / gamma >=
s1(G^ell) / gamma, where s1(G^ell) = s_ell(G) counts the nodes of degree
n - 1 (eccentricity <= 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import GraphAnalysis, analysis_for, gamma, tolerance
from .graphs import Graph
# unused here, but perfbench/test_perfbench.py asserts this all_pairs_distances import site
from .metrics import all_pairs_distances, count_s_ell  # noqa: F401
from .spectral import CertificateResult


@dataclass(frozen=True)
class ChainCheck:
    """Result of verifying the three-link spectral chain on one (graph, ell).

    The links, in order (``lambda2_power`` is exactly n when G^ell is complete, else the eigensolver's):

    1. lambda2_g >= lambda2_power / gamma_val  (within bounds.tolerance(lambda2_g))
    2. lambda2_power >= s1_power               (within bounds.tolerance(lambda2_power))
    3. s1_power == s_ell                       (exact integer equality)
    """

    lambda2_g: float
    lambda2_power: float
    gamma_val: float
    s1_power: int
    s_ell: int
    links_hold: tuple[bool, bool, bool]

    @property
    def all_hold(self) -> bool:
        return all(self.links_hold)


def certify_g1_matrix(g: Graph | GraphAnalysis, ell: int) -> CertificateResult:
    """Certify that gamma(n, ell) * L(G) - L(G^ell) is positive semi-definite.

    The graph must be connected; this is the hypothesis under which the
    matrix inequality holds. The verdict is a Cholesky proof or, failing
    that, the eigensolver's with the scaled PSD tolerance; ``method`` says
    which, and the tolerance is recorded either way.
    """
    a = analysis_for("certificate", g, ell, 2)
    if not a.connected:
        raise ValueError("certify_g1_matrix requires a connected graph")
    return a.certificate("g1", ell)


def certify_g2_matrix(g: Graph | GraphAnalysis, ell: int) -> CertificateResult:
    """Certify that (1 + ell*(e(G^ell) - m)) * L(G) - L(G^ell) is PSD.

    Valid for ell >= 1 and for disconnected graphs as well; at ell = 1 the
    matrix is identically zero. Proved or eigensolved as for g1; a
    disconnected graph's matrix and the zero matrix are singular, so they are
    eigensolved.
    """
    return analysis_for("certificate", g, ell, 1).certificate("g2", ell)


def check_chain(g: Graph | GraphAnalysis, ell: int) -> ChainCheck:
    """Verify the spectral chain lambda2(G) >= lambda2(G^ell)/gamma >= s_ell/gamma.

    s1 of the power graph counts its nodes of degree n - 1 (eccentricity <= 1),
    so link 3 cross-checks G^ell's degrees (``GraphAnalysis.power_s1``) against
    G's sorted eccentricities, both read from one distance matrix, without a BFS.
    """
    a = analysis_for("chain check", g, ell, 2)
    if not a.connected:
        raise ValueError("check_chain requires a connected graph")
    s_ell = count_s_ell(a.eccentricities, ell)
    s1_power = a.power_s1(ell)

    lambda2_power = a.power_lambda2(ell)
    lambda2_g = a.lambda2
    gamma_val = gamma(a.n, ell)

    link1 = lambda2_g >= lambda2_power / gamma_val - tolerance(lambda2_g)
    link2 = lambda2_power >= s1_power - tolerance(lambda2_power)
    link3 = s1_power == s_ell
    return ChainCheck(
        lambda2_g=lambda2_g,
        lambda2_power=lambda2_power,
        gamma_val=gamma_val,
        s1_power=s1_power,
        s_ell=s_ell,
        links_hold=(link1, link2, link3),
    )
