"""Acceptance suite: nine binding criteria for the whole package.

Each test prints a single "criterion N: PASS/FAIL" line (run with -s to see
them live). Criteria 2-4 share one randomized corpus of 1000 connected
Erdos-Renyi graphs and 500 random trees, built once per module; each graph
gets one GraphAnalysis that the three checks share. Criterion 8 audits the
numerical quality of every eigendecomposition the earlier criteria triggered,
as recorded by the module's ``decompositions`` fixture.
"""

from dataclasses import dataclass

import numpy as np
import pytest

import eccbounds as eb
import oracles
from eccbounds import cli, spectral
from eccbounds.bounds import bound_g1, bound_g1_diam, bound_g2, bound_mohar, gamma
from eccbounds.metrics import count_s_ell, eccentricity_profile


def _report(num: int, ok: bool, detail: str = "") -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module", autouse=True)
def decompositions():
    """(relative residual, orthogonality error) of each eigendecomposition in this module.

    Wraps the solver's one core, ``spectral.eigen_decompose_stack``, at
    every eccbounds module that imports it (``oracles.patch_everywhere``),
    and records every member of each stack. ``eigen_decompose`` solves
    through that core too, so each matrix is recorded once, whether solved
    alone or stacked. The residual is relative to ``max(1, ||A||_inf)`` of
    that member.
    """
    original = spectral.eigen_decompose_stack
    quality: list[tuple[float, float]] = []

    def recorded(stack):
        summaries = original(stack)
        for a, summary in zip(stack, summaries):
            relative = summary.residual / max(1.0, spectral.inf_norm(a))
            quality.append((relative, summary.orthogonality_error))
        return summaries

    with pytest.MonkeyPatch.context() as mp:
        oracles.patch_everywhere(mp, original, recorded)
        yield quality


@dataclass(frozen=True)
class EllRecord:
    """One (graph, ell) evaluation shared by criteria 2, 3, and 4."""

    graph: eb.Graph
    ell: int
    lam: float
    s_ell: int
    gamma_val: float
    b_g1: float
    b_g2: float
    cert1: eb.CertificateResult
    cert2: eb.CertificateResult
    chain: eb.ChainCheck


@pytest.fixture(scope="module")
def corpus():
    """1000 connected ER graphs (n<=16, p in {0.2,0.4,0.7}) + 500 trees (n<=12)."""
    rng = np.random.default_rng(20260819)
    analyses: list[eb.GraphAnalysis] = []
    ps = (0.2, 0.4, 0.7)
    while len(analyses) < 1000:
        n = 4 + len(analyses) % 13  # 4..16
        analysis = eb.GraphAnalysis(eb.erdos_renyi(n, ps[len(analyses) % 3], seed=rng))
        if analysis.connected:
            analyses.append(analysis)
    for i in range(500):
        analyses.append(eb.GraphAnalysis(eb.random_tree(3 + i % 10, seed=rng)))  # 3..12

    records: list[EllRecord] = []
    for analysis in analyses:
        g = analysis.graph
        for ell in range(2, analysis.profile.diameter + 1):
            s_ell = count_s_ell(analysis.profile, ell)
            records.append(
                EllRecord(
                    graph=g,
                    ell=ell,
                    lam=analysis.lambda2,
                    s_ell=s_ell,
                    gamma_val=gamma(g.n, ell),
                    b_g1=bound_g1(g.n, ell, s_ell),
                    b_g2=bound_g2(s_ell, ell, analysis.power(ell).m, g.m),
                    cert1=eb.certify_g1_matrix(analysis, ell),
                    cert2=eb.certify_g2_matrix(analysis, ell),
                    chain=eb.check_chain(analysis, ell),
                )
            )
    return [a.graph for a in analyses], records


def test_criterion_1_closed_form_spectra():
    worst = 0.0
    for n in range(3, 21):
        pairs = (
            (eb.path_graph(n), oracles.lambda2_path(n)),
            (eb.cycle_graph(n), oracles.lambda2_cycle(n)),
            (eb.complete_graph(n), oracles.lambda2_complete(n)),
            (eb.star_graph(n), oracles.lambda2_star(n)),
        )
        for g, expected in pairs:
            worst = max(worst, abs(eb.lambda2(g) - expected))
    _report(1, worst <= 1e-9, f"max closed-form deviation {worst:.3e}")


def test_criterion_2_soundness_campaign(corpus):
    graphs, records = corpus
    assert len(graphs) == 1500
    violations = [
        r
        for r in records
        if r.b_g1 > r.lam + 1e-9 * max(1.0, r.lam) or r.b_g2 > r.lam + 1e-9 * max(1.0, r.lam)
    ]
    _report(2, not violations, f"{len(violations)} violations across {len(records)} checks")


def test_criterion_3_certificate_campaign(corpus):
    _, records = corpus
    bad = [r for r in records if r.cert1.verdict != eb.PSD or r.cert2.verdict != eb.PSD]
    _report(3, not bad, f"{len(bad)} NOT_PSD verdicts across {len(records)} pairs")


def test_criterion_4_chain_identity(corpus):
    _, records = corpus
    bad = [
        r
        for r in records
        if r.chain.s1_power != r.s_ell
        or r.chain.lambda2_g
        < r.chain.lambda2_power / r.chain.gamma_val - 1e-9 * max(1.0, r.chain.lambda2_g)
    ]
    _report(4, not bad, f"{len(bad)} chain failures across {len(records)} pairs")


def test_criterion_5_reduction_identities():
    rng = np.random.default_rng(77)
    worst_rel = 0.0
    ok = True
    for i in range(100):
        n = 2 + i % 19  # 2..20
        g = eb.erdos_renyi(n, (0.15, 0.45, 0.8)[i % 3], seed=rng)
        e = eccentricity_profile(eb.all_pairs_distances(g))
        s1 = count_s_ell(e, 1)
        s2 = count_s_ell(e, 2)
        got = bound_g1(g.n, 2, s2)
        expected = s2 / g.n
        if expected == 0.0:
            ok = ok and got == 0.0
        else:
            worst_rel = max(worst_rel, abs(got - expected) / abs(expected))
        ok = ok and bound_g2(s1, 1, g.m, g.m) == float(s1)
    _report(
        5,
        ok and worst_rel <= 1e-15,
        f"worst ell=2 relative deviation {worst_rel:.3e}; ell=1 exactness {ok}",
    )


def test_criterion_6_dominance():
    bad = [
        (n, d)
        for n in range(2, 201)
        for d in range(1, n)
        if bound_g1_diam(n, d) < bound_mohar(n, d)
    ]
    _report(6, not bad, f"dominance fails at {bad[:5]}..." if bad else "")


def test_criterion_7_tightness_witnesses():
    checks = []
    p3 = eb.path_graph(3)
    r3 = eb.evaluate_all(p3, 2)
    checks.append(abs(r3.bounds["g2"] - 1.0) <= 1e-9)
    checks.append(abs(r3.lambda2 - 1.0) <= 1e-9)
    checks.append(abs(r3.bounds["g2"] - r3.lambda2) <= 1e-9)
    cert = eb.certify_g2_matrix(p3, 2)
    checks.append(cert.verdict == eb.PSD and abs(cert.min_eigenvalue) <= cert.tolerance)
    for n in range(2, 11):
        rk = eb.evaluate_all(eb.complete_graph(n), 2)
        checks.append(rk.bounds["s1"] == float(n))
        checks.append(abs(rk.lambda2 - n) <= 1e-9)
        checks.append(rk.tight["s1"])
    _report(7, all(checks), f"failed witness checks: {[i for i, c in enumerate(checks) if not c]}")


def test_criterion_8_numerics(corpus, decompositions):
    del corpus  # ensures thousands of decompositions happened in this module
    max_residual = max((residual for residual, _ in decompositions), default=0.0)
    max_orthogonality = max((orth for _, orth in decompositions), default=0.0)
    ok = len(decompositions) > 0 and max_residual <= 1e-8 and max_orthogonality <= 1e-10
    _report(
        8,
        ok,
        f"{len(decompositions)} decompositions, max relative residual "
        f"{max_residual:.3e}, max orthogonality error {max_orthogonality:.3e}",
    )


def test_criterion_9_determinism(tmp_path, capsys):
    args = [
        "verify",
        "--family",
        "erdos_renyi",
        "--n",
        "10",
        "--p",
        "0.4",
        "--trials",
        "25",
        "--seed",
        "7",
    ]
    rc1 = cli.main(args)
    out1 = capsys.readouterr().out
    rc2 = cli.main(args)
    out2 = capsys.readouterr().out
    f1, f2 = tmp_path / "run1.json", tmp_path / "run2.json"
    rc3 = cli.main(args + ["--out", str(f1)])
    rc4 = cli.main(args + ["--out", str(f2)])
    capsys.readouterr()
    ok = (
        rc1 == rc2 == rc3 == rc4 == 0
        and len(out1) > 0
        and out1 == out2
        and f1.read_bytes() == f2.read_bytes()
    )
    _report(9, ok, "verify output must be byte-identical under a fixed seed")
