"""The verified Cholesky proof of the PSD certificates, against exact rational elimination."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import oracles
from eccbounds import spectral
from eccbounds.bounds import GraphAnalysis, solve_stacked
from eccbounds.graphs import Graph, cycle_graph, erdos_renyi, path_graph
from eccbounds.metrics import power_adjacency
from eccbounds.spectral import PSD, adjacency_laplacian, laplacian, prove_psd_stack, psd_tolerance


@pytest.fixture
def proofs(monkeypatch):
    """(stack, proved) of every ``prove_psd_stack`` call, through every module importing it."""
    original = spectral.prove_psd_stack
    calls = []

    def recorded(stack):
        proved = original(stack)
        calls.append((stack, proved))
        return proved

    oracles.patch_everywhere(monkeypatch, original, recorded)
    return calls


def connected_graphs(n: int):
    """(graph, adjacency, diameter) of every connected labelled graph on n nodes, by Floyd-Warshall."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        g = Graph.from_edges(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])
        adj = g.adjacency_matrix()
        dist = oracles.floyd_warshall(adj)
        if np.isfinite(dist).all():
            yield g, adj, int(dist.max())


def with_zero_row_sums(grounded) -> np.ndarray:
    """The symmetric integer matrix with zero row sums whose leading block is ``grounded``."""
    g = np.asarray(grounded, dtype=np.float64)
    k = len(g)
    m = np.zeros((k + 1, k + 1))
    m[:k, :k] = g
    m[:k, k] = m[k, :k] = -g.sum(axis=1)
    m[k, k] = g.sum()
    return m


def pell(b: int) -> np.ndarray:
    """Grounded [[b - 1, b], [b, b + 1]] has determinant -1: an eigenvalue of about -1/(2b), and
    a last Cholesky pivot of -1/(b - 1) that rounding hides for many b near 1e14."""
    return with_zero_row_sums([[b - 1, b], [b, b + 1]])


PELLS = [pell(b) for b in range(10**14, 10**14 + 64)]
PELL = PELLS[1]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_small_connected_graph_agrees_with_exact_elimination(proofs, n):
    """A proof implies the grounded certificate is exactly PD; an exactly PD one is proved; a singular
    one falls back to the eigensolver and still reads PSD. The matrix the proof receives is exactly
    4x (g1) or 1x (g2) the rational certificate."""
    cases = [(GraphAnalysis(g), adj, range(2, max(2, d) + 1)) for g, adj, d in connected_graphs(n)]
    solve_stacked((a, ells) for a, _, ells in cases)
    members = np.concatenate([stack for stack, _ in proofs])
    proved = np.concatenate([verdicts for _, verdicts in proofs])
    keys = [(a, adj, ell, kind) for a, adj, ells in cases for ell in ells for kind in ("g1", "g2")]
    assert len(members) == len(keys)
    singular = 0
    for member, won, (a, adj, ell, kind) in zip(members, proved, keys):
        exact = oracles.certificate_matrix(adj, ell, kind)
        scale = 4 if kind == "g1" else 1
        assert [[Fraction(x) for x in row] for row in member] == [[scale * x for x in row] for row in exact]
        psd, definite = oracles.exact_definiteness([row[:-1] for row in exact[:-1]])
        assert psd  # the theorems behind g1 and g2
        cert = a.certificate(kind, ell)
        assert won == definite and cert.verdict == PSD
        if won:
            assert (cert.method, cert.min_eigenvalue) == ("cholesky", 0.0)
            coeff = a._coefficients(kind, ell)[0]
            lap, power = (adjacency_laplacian(power_adjacency(a.dist, k)) for k in (1, ell))
            assert cert.tolerance == psd_tolerance(coeff * lap - power)
        else:
            assert cert.method == "eigen" and abs(cert.min_eigenvalue) <= cert.tolerance
            singular += 1
    assert proved.any() and singular > 0


def test_shift_refuses_what_an_unshifted_cholesky_accepts():
    accepted = 0
    for m in PELLS:
        assert oracles.exact_definiteness(m[:2, :2]) == (False, False)
        try:
            np.linalg.cholesky(m[:2, :2])
            accepted += 1
        except np.linalg.LinAlgError:
            pass
    assert accepted >= 4  # a negative control only where the unshifted factorisation succeeds
    assert not prove_psd_stack(np.stack(PELLS)).any()


def test_one_failing_member_does_not_stop_its_neighbours():
    # a singular grounded Laplacian (two components) and the indefinite PELL, each between members it must not sink
    pd = [laplacian(path_graph(3)), laplacian(cycle_graph(3))]
    singular = laplacian(Graph.from_edges(3, [(0, 1)]))
    stack = np.stack([pd[0], singular, pd[1], PELL, pd[0]])
    assert prove_psd_stack(stack).tolist() == [True, False, True, False, True]


@pytest.mark.parametrize("where", [0, 449, 899])
def test_one_failing_member_costs_logarithmic_batched_calls(where, monkeypatch):
    # 900 connected ER n = 12 Laplacians and one singular one (an isolated node) in their midst
    laps = []
    seed = 0
    while len(laps) < 900:
        g = erdos_renyi(12, 0.3, seed=seed)
        seed += 1
        if g.m >= 11 and (oracles.floyd_warshall(g.adjacency_matrix()) < np.inf).all():
            laps.append(laplacian(g))
    laps[where] = laplacian(Graph.from_edges(12, [(i, i + 1) for i in range(10)]))
    stack = np.stack(laps)
    each = [bool(prove_psd_stack(m[None])[0]) for m in laps]
    assert each == [i != where for i in range(900)]

    cholesky, calls = np.linalg.cholesky, []
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(len(a)) or cholesky(a))
    assert prove_psd_stack(stack).tolist() == each
    assert len(calls) <= 2 * math.ceil(math.log2(900)) + 1


@pytest.mark.parametrize(
    "change",
    [
        lambda m: m / 2,  # not integer-valued
        lambda m: m + np.eye(3),  # rows do not sum to zero
        lambda m: m + np.array([[-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),  # not symmetric
        lambda m: m * 2.0**52,  # n * max|a_ij| above 2^53
        lambda m: np.where(np.eye(3, dtype=bool), np.nan, m),  # not finite
        lambda m: np.where(np.eye(3, dtype=bool), np.inf, m),
    ],
    ids=["fraction", "row-sums", "asymmetric", "too-large", "nan", "inf"],
)
def test_a_member_outside_the_proof_is_declined(change):
    lap = laplacian(cycle_graph(3))  # entries 2 and -1: PD once grounded
    assert prove_psd_stack(np.stack([lap, change(lap), lap])).tolist() == [True, False, True]


def test_degenerate_stacks():
    assert prove_psd_stack(np.zeros((0, 3, 3))).tolist() == []
    assert prove_psd_stack(np.ones((2, 1, 1))).tolist() == [False, False]
    with pytest.raises(ValueError, match="expected a stack of square matrices"):
        prove_psd_stack(np.zeros((3, 3)))


def test_a_huge_ell_is_declined_before_any_float_conversion(proofs):
    # P4 at ell: G^ell = K4 for ell >= 3, so the g2 matrix is (1 + 3 ell) L - L(K4);
    # it is proved while 4 * (|1 + 3 ell| + 1) * 3 <= 2^53, and left to the eigensolver past it
    last = (2**53 // 12 - 2) // 3
    assert 12 * (2 + 3 * last) <= 2**53 < 12 * (2 + 3 * (last + 1))
    for ell, method in ((last, "cholesky"), (last + 1, "eigen"), (2**60, "eigen")):
        a = GraphAnalysis(path_graph(4))
        del proofs[:]
        cert = a.certificate("g2", ell)
        assert cert.verdict == PSD and cert.method == method
        assert len(proofs) == (method == "cholesky")
    # g1's coefficient (ell - 2) n^2 + 4n passes 2^53 / 12 too: neither matrix reaches the proof
    a = GraphAnalysis(path_graph(4))
    solve_stacked([(a, [2**60])])
    assert proofs == [] and {a.certificate(kind, 2**60).method for kind in ("g1", "g2")} == {"eigen"}
