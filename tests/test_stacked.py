"""The stacked eigensolver core and the per-graph stacked solve of GraphAnalysis."""

import numpy as np
import pytest

import oracles
from eccbounds import _kernels, bounds, spectral
from eccbounds.bounds import GraphAnalysis, gamma
from eccbounds.cli import CampaignConfig, run_campaign
from eccbounds.certify import certify_g1_matrix, certify_g2_matrix, check_chain
from eccbounds.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    random_tree,
    star_graph,
)
from eccbounds.spectral import (
    JacobiConvergenceError,
    eigen_decompose,
    eigen_decompose_stack,
    is_psd,
    laplacian,
    psd_certificate,
)


@pytest.fixture
def solves(monkeypatch):
    """(stack, summaries) of every ``eigen_decompose_stack`` call, through every module importing it."""
    original = spectral.eigen_decompose_stack
    calls = []

    def recorded(stack):
        summaries = original(stack)
        calls.append((stack, summaries))
        return summaries

    oracles.patch_everywhere(monkeypatch, original, recorded)
    return calls


def graphs_of_order(n: int) -> list[Graph]:
    """Connected and disconnected graphs on n nodes: path, star, complete, ER, and two halves."""
    graphs = [path_graph(n), star_graph(n), complete_graph(n), Graph.from_edges(n, [])]
    graphs += [erdos_renyi(n, p, seed=n) for p in (0.15, 0.5)]
    if n >= 4:
        half = n // 2
        graphs.append(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1) if i + 1 != half]))
    return graphs


def members_of_order(n: int) -> list[np.ndarray]:
    """Laplacians, the two certificate matrices at ell = 2 and a power Laplacian, of each graph."""
    members = []
    for g in graphs_of_order(n):
        a = GraphAnalysis(g)
        coeff = float(1 + 2 * (a.power(2).m - a.m))
        members += [a.laplacian, a.power_laplacian(2)]
        members += [gamma(n, 2) * a.laplacian - a.power_laplacian(2), coeff * a.laplacian - a.power_laplacian(2)]
    return members


def assert_same_summary(stacked, alone):
    assert np.array_equal(stacked.eigenvalues, alone.eigenvalues)
    assert np.array_equal(stacked.vectors, alone.vectors)
    assert (stacked.residual, stacked.orthogonality_error) == (alone.residual, alone.orthogonality_error)


class TestStackedCore:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 12, 17, 25, 40])
    def test_stacked_equals_per_matrix_bitwise(self, n):
        members = members_of_order(n)
        stacked = eigen_decompose_stack(np.stack(members))
        assert len(stacked) == len(members)
        for a, s in zip(members, stacked):
            alone = eigen_decompose(a)
            assert_same_summary(s, alone)
            assert psd_certificate(a, s) == is_psd(a)
            assert not s.eigenvalues.flags.writeable and not s.vectors.flags.writeable

    def test_members_match_the_oracle(self):
        members = members_of_order(12)
        for a, s in zip(members, eigen_decompose_stack(np.stack(members))):
            scale = max(1.0, spectral.inf_norm(a))
            assert np.allclose(s.eigenvalues, oracles.sorted_eigenvalues(a), rtol=0, atol=1e-10 * scale)
            assert s.residual <= 1e-12 * scale and s.orthogonality_error <= 1e-12

    def test_only_the_member_that_needs_sweeps_is_swept(self, monkeypatch):
        members = [laplacian(erdos_renyi(12, 0.3, seed=s)) for s in range(5)]
        alone = [eigen_decompose(a) for a in members]
        eigh = np.linalg.eigh

        def identity_start_for_member_2(a):
            w, q = eigh(a)
            q = q.copy()
            q[2] = np.eye(a.shape[-1])  # an unpreconditioned start: Jacobi must sweep
            return w, q

        kernel = _kernels.jacobi_sweeps
        results = []

        def recorded(a, basis):
            results.append(kernel(a, basis))
            return results[-1]

        monkeypatch.setattr(np.linalg, "eigh", identity_start_for_member_2)
        monkeypatch.setattr(_kernels, "jacobi_sweeps", recorded)
        stacked = eigen_decompose_stack(np.stack(members))
        # every sweep of the stack is member 2's, as many as it runs alone from the identity
        sweeps, w, v = kernel(members[2][None], np.eye(12)[None])
        assert len(results) == 1 and results[0][0] == sweeps > 0
        for i, (s, single) in enumerate(zip(stacked, alone)):
            if i == 2:
                assert np.array_equal(s.eigenvalues, w[0]) and np.array_equal(s.vectors, v[0])
                assert np.allclose(s.eigenvalues, oracles.sorted_eigenvalues(members[i]), rtol=0, atol=1e-10)
                assert s.residual <= 1e-10 and s.orthogonality_error <= 1e-12
            else:
                assert_same_summary(s, single)

    def test_non_symmetric_member_raises(self):
        members = [laplacian(path_graph(4)), laplacian(cycle_graph(4))]
        members[1][0, 1] += 1e-12
        with pytest.raises(ValueError, match="not exactly symmetric"):
            eigen_decompose_stack(np.stack(members))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4), (1, 2, 2, 2)])
    def test_rejects_anything_but_a_stack_of_squares(self, shape):
        with pytest.raises(ValueError, match="expected a stack of square matrices"):
            eigen_decompose_stack(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_member_raises(self, bad):
        # inf == inf passes the symmetry test; NaN would be named asymmetric
        members = [laplacian(path_graph(3)), laplacian(cycle_graph(3))]
        members[1][0, 1] = members[1][1, 0] = bad
        with pytest.raises(ValueError, match=r"^matrix has a non-finite entry \(inf or NaN\)$"):
            eigen_decompose_stack(np.stack(members))

    def test_empty_stack_gives_no_summaries(self):
        assert eigen_decompose_stack(np.zeros((0, 3, 3))) == []

    def test_sweep_cap_names_the_member(self, monkeypatch):
        monkeypatch.setattr(_kernels, "OFF_DIAG_REL_TOL", 0.0)
        monkeypatch.setattr(_kernels, "MAX_SWEEPS", 0)
        stack = np.stack([np.diag([1.0, 2.0, 3.0]), laplacian(path_graph(3))])
        with pytest.raises(JacobiConvergenceError, match=r"after 0 sweeps \(n=3, .*target 0\.000e\+00\)"):
            eigen_decompose_stack(stack)

    def test_eigen_decompose_makes_one_stack_of_one(self, solves):
        eigen_decompose(laplacian(path_graph(5)))
        assert [stack.shape for stack, _ in solves] == [(1, 5, 5)]


class TestStackedKernel:
    def test_converged_members_are_left_untouched(self):
        a = np.stack([np.diag([4.0, -2.0, 1.0]), np.array([[2.0, 1.0, 0.0], [1.0, 3.0, -1.0], [0.0, -1.0, 1.0]])])
        work, vecs = a.copy(), np.stack([np.eye(3), np.eye(3)])
        sweeps, w, v = _kernels.jacobi_sweeps(work, vecs)
        # every sweep is member 1's: member 0 meets the rule and is only sorted
        assert sweeps == _kernels.jacobi_sweeps(a[1:].copy(), np.eye(3)[None])[0] > 0
        assert w[0].tolist() == [-2.0, 1.0, 4.0] and np.array_equal(v[0], np.eye(3)[:, [1, 2, 0]])
        assert np.array_equal(work, a) and np.array_equal(vecs[0], np.eye(3))
        assert np.allclose(w[1], oracles.sorted_eigenvalues(a[1]), atol=1e-12)

    def test_stacked_member_sweeps_as_alone(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 6, 6))
        a = a + a.transpose(0, 2, 1)
        noise = rng.normal(size=(6, 6)) * 1e-4
        a[1] = np.diag(np.arange(1.0, 7.0)) + noise + noise.T  # nearly diagonal: fewer sweeps
        sweeps, w, v = _kernels.jacobi_sweeps(a.copy(), np.stack([np.eye(6)] * 3))
        alone = [_kernels.jacobi_sweeps(a[i : i + 1].copy(), np.eye(6)[None]) for i in range(3)]
        counts = [r[0] for r in alone]
        assert 1 <= counts[1] < min(counts[0], counts[2]) and sweeps == sum(counts)
        for i, (_, lone_w, lone_v) in enumerate(alone):
            assert np.array_equal(lone_w[0], w[i]) and np.array_equal(lone_v[0], v[i])


def campaign_graphs() -> list[Graph]:
    return [erdos_renyi(12, 0.3, seed=s) for s in range(8)] + [random_tree(15, seed=1), cycle_graph(9)]


class TestGraphAnalysisSolve:
    @pytest.mark.parametrize("g", campaign_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
    def test_lambda2_after_solve_equals_a_lone_solve(self, g):
        a = GraphAnalysis(g)
        a.solve(range(2, 6))
        assert a.lambda2 == GraphAnalysis(g).lambda2

    @pytest.mark.parametrize("g", campaign_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
    def test_memo_equals_fresh_checks(self, g):
        a = GraphAnalysis(g)
        ells = range(2, 5)
        a.solve(ells)
        if not a.connected:
            return
        for ell in ells:
            assert certify_g1_matrix(a, ell) == certify_g1_matrix(g, ell)
            assert certify_g2_matrix(a, ell) == certify_g2_matrix(g, ell)
            assert certify_g1_matrix(a, ell) == is_psd(gamma(a.n, ell) * a.laplacian - a.power_laplacian(ell))
            assert check_chain(a, ell) == check_chain(g, ell)
            assert a.spectrum("power", ell) == eigen_decompose(a.power_laplacian(ell)).eigenvalues[1]

    def test_solve_once_then_read_the_memo(self, solves):
        a = GraphAnalysis(erdos_renyi(12, 0.3, seed=3))
        assert a.connected and a.profile.diameter >= 3
        a.solve([2, 3])
        assert [len(stack) for stack, _ in solves] == [1 + 3 * 2]
        a.solve([2, 3])
        a.lambda2, certify_g1_matrix(a, 3), certify_g2_matrix(a, 2), check_chain(a, 3)
        assert len(solves) == 1
        a.solve([2, 3, 4])
        assert [len(stack) for stack, _ in solves] == [7, 3]

    def test_a_miss_solves_only_the_missing_matrix(self, solves):
        g = erdos_renyi(30, 0.2, seed=3)
        assert GraphAnalysis(g).connected
        certify_g1_matrix(g, 2), certify_g2_matrix(g, 2), check_chain(g, 2)
        # one solve per lone certificate, two (L(G) and L(G^2)) for the chain
        assert [len(stack) for stack, _ in solves] == [1, 1, 1, 1]
        a = GraphAnalysis(g)
        certify_g2_matrix(a, 3)
        assert list(a._solved) == [("g2", 3)]

    def test_small_budget_gives_the_same_results_in_more_calls(self, monkeypatch, solves):
        graphs = campaign_graphs()
        default = []
        for g in graphs:
            a = GraphAnalysis(g)
            a.solve(range(2, 6))
            default.append(dict(a._solved))
        assert len(solves) == len(graphs)
        monkeypatch.setattr(bounds, "_STACK_BYTES", 3 * 8 * 12 * 12)
        for g, expected in zip(graphs, default):
            a = GraphAnalysis(g)
            a.solve(range(2, 6))
            assert a._solved == expected
        sizes = [len(stack) for stack, _ in solves[len(graphs) :]]
        assert max(sizes[:8]) == 3  # the n = 12 graphs: three members a stack
        assert len(sizes) > len(graphs)

    def test_a_matrix_over_budget_is_solved_alone_without_a_copy(self, monkeypatch, solves):
        monkeypatch.setattr(bounds, "_STACK_BYTES", 1)
        a = GraphAnalysis(path_graph(6))
        a.solve([2])
        assert [stack.shape for stack, _ in solves] == [(1, 6, 6)] * 4
        assert np.shares_memory(solves[0][0], a.laplacian)

    def test_disconnected_graph_solves_only_its_laplacian(self):
        a = GraphAnalysis(Graph.from_edges(6, [(0, 1), (2, 3)]))
        a.solve([2, 3])
        assert list(a._solved) == [("lambda2", 0)]
        assert abs(a.lambda2) <= 1e-9
        # the g2 certificate stays defined there, solved on its own
        assert certify_g2_matrix(a, 2).verdict == spectral.PSD

    def test_solve_refuses_a_single_node(self):
        with pytest.raises(ValueError, match="solve needs n >= 2, got n=1"):
            GraphAnalysis(Graph.from_edges(1, [])).solve([2])


def test_campaign_members_are_checked_to_roundoff(solves):
    """Criterion 8's numerics on every member of a campaign's stacked solves."""
    for family, n in (("erdos_renyi", 12), ("random_tree", 14), ("erdos_renyi", 30)):
        config = CampaignConfig(family=family, n=n, p=0.3 if family == "erdos_renyi" else None, trials=20, seed=9)
        assert run_campaign(config).violations == []
    quality = [
        (s.residual / max(1.0, spectral.inf_norm(a)), s.orthogonality_error)
        for stack, summaries in solves
        for a, s in zip(stack, summaries)
    ]
    assert len(quality) > 500
    assert max(r for r, _ in quality) <= 1e-8 and max(o for _, o in quality) <= 1e-10
