"""Numerical certificates for the matrix inequalities behind the bounds.

Each eccentricity-count bound rests on a matrix being positive semi-definite:

* ``gamma(n, ell) * L(G) - L(G^ell)`` for the gamma-scaled bound, and
* ``(1 + ell * (e(G^ell) - m)) * L(G) - L(G^ell)`` for the edge-growth bound.

This module builds those matrices on concrete graphs and certifies them via
the eigensolver. ``check_chain`` verifies the spectral chain connecting the
two Laplacians: lambda2(G) >= lambda2(G^ell) / gamma >= s1(G^ell) / gamma,
where s1(G^ell) = s_ell(G) counts the nodes of degree n - 1 (eccentricity <= 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import GraphAnalysis, analysis_for, gamma
from .graphs import Graph
# unused here, but perfbench/test_perfbench.py asserts this all_pairs_distances import site
from .metrics import all_pairs_distances, count_s_ell  # noqa: F401
from .spectral import CertificateResult, eigen_decompose, is_psd

#: Relative tolerance for the two inequality links of the spectral chain.
CHAIN_REL_TOL = 1e-9


@dataclass(frozen=True)
class ChainCheck:
    """Result of verifying the three-link spectral chain on one (graph, ell).

    The links, in order:

    1. lambda2_g >= lambda2_power / gamma_val  (within tolerance)
    2. lambda2_power >= s1_power               (within tolerance)
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
    matrix inequality holds. The verdict uses the scaled PSD tolerance, which
    is recorded in the result.
    """
    a = analysis_for("certificate", g, ell, 2)
    if not a.connected:
        raise ValueError("certify_g1_matrix requires a connected graph")
    return is_psd(gamma(a.n, ell) * a.laplacian - a.power_laplacian(ell))


def certify_g2_matrix(g: Graph | GraphAnalysis, ell: int) -> CertificateResult:
    """Certify that (1 + ell*(e(G^ell) - m)) * L(G) - L(G^ell) is PSD.

    Valid for ell >= 1 and for disconnected graphs as well; at ell = 1 the
    matrix is identically zero. The verdict uses the scaled PSD tolerance.
    """
    a = analysis_for("certificate", g, ell, 1)
    coeff = 1 + ell * (a.power(ell).m - a.m)
    return is_psd(float(coeff) * a.laplacian - a.power_laplacian(ell))


def check_chain(g: Graph | GraphAnalysis, ell: int) -> ChainCheck:
    """Verify the spectral chain lambda2(G) >= lambda2(G^ell)/gamma >= s_ell/gamma.

    s1 of the power graph counts its nodes of degree n - 1 (eccentricity <= 1),
    so link 3 cross-checks how ``power_graph`` built G^ell against G's
    eccentricity profile, both read from one distance matrix, without a BFS.
    """
    a = analysis_for("chain check", g, ell, 2)
    if not a.connected:
        raise ValueError("check_chain requires a connected graph")
    s_ell = count_s_ell(a.profile, ell)
    s1_power = int((a.power(ell).degrees() == a.n - 1).sum())

    lambda2_g = a.lambda2
    lambda2_power = eigen_decompose(a.power_laplacian(ell)).lambda2
    gamma_val = gamma(a.n, ell)
    assert lambda2_power is not None

    link1 = lambda2_g >= lambda2_power / gamma_val - CHAIN_REL_TOL * max(1.0, lambda2_g)
    link2 = lambda2_power >= s1_power - CHAIN_REL_TOL * max(1.0, lambda2_power)
    link3 = s1_power == s_ell
    return ChainCheck(
        lambda2_g=lambda2_g,
        lambda2_power=lambda2_power,
        gamma_val=gamma_val,
        s1_power=s1_power,
        s_ell=s_ell,
        links_hold=(link1, link2, link3),
    )
