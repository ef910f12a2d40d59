"""Distances, eccentricities, s_ell counts, and power graphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from eccbounds import graphs
from eccbounds.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    random_tree,
    serialize_edge_list,
    serialize_edges,
    star_graph,
)
from eccbounds.metrics import (
    UNREACHABLE,
    all_pairs_distances,
    count_s_ell,
    eccentricity_profile,
    power_edges,
    power_graph,
)

TWO_DISJOINT_EDGES = Graph.from_edges(4, [(0, 1), (2, 3)])


def random_sample(max_n: int = 8, seeds: range = range(20)) -> list[Graph]:
    graphs = []
    for seed in seeds:
        for p in (0.2, 0.5, 0.8):
            for n in range(2, max_n + 1):
                graphs.append(erdos_renyi(n, p, seed=seed * 1000 + n))
    return graphs


class TestAllPairsDistances:
    def test_path_endpoints(self):
        d = all_pairs_distances(path_graph(4))
        assert d[0, 3] == 3 and d[3, 0] == 3

    def test_disconnected_marker(self):
        d = all_pairs_distances(TWO_DISJOINT_EDGES)
        assert d[0, 2] == UNREACHABLE
        assert d[0, 1] == 1

    def test_cycle_wraps(self):
        d = all_pairs_distances(cycle_graph(5))
        assert d[0, 2] == 2 and d[0, 3] == 2

    def test_matches_floyd_warshall_oracle(self):
        for g in random_sample():
            expected = oracles.floyd_warshall(g.adjacency_matrix())
            got = all_pairs_distances(g).astype(float)
            got[got == UNREACHABLE] = np.inf
            assert np.array_equal(got, expected), f"mismatch on {g!r}"

    def test_structural_invariants(self):
        for g in random_sample(max_n=6, seeds=range(5)):
            d = all_pairs_distances(g)
            assert np.array_equal(d, d.T)
            assert (np.diag(d) == 0).all()
            adj = g.adjacency_matrix()
            assert np.array_equal(d == 1, adj == 1)
            n = g.n
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if d[i, k] >= 0 and d[k, j] >= 0 and d[i, j] >= 0:
                            assert d[i, j] <= d[i, k] + d[k, j]

    def test_dist_array_read_only(self):
        d = all_pairs_distances(path_graph(3))
        with pytest.raises(ValueError):
            d[0, 0] = 5

    def test_rejects_empty_graph(self):
        empty = Graph(0, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match=r"^node count must be >= 1, got 0$"):
            all_pairs_distances(empty)


class TestEccentricityProfile:
    def test_path(self):
        e = eccentricity_profile(all_pairs_distances(path_graph(4)))
        assert list(e.ecc) == [3, 2, 2, 3] and e.diameter == 3

    def test_complete(self):
        e = eccentricity_profile(all_pairs_distances(complete_graph(4)))
        assert list(e.ecc) == [1, 1, 1, 1] and e.diameter == 1

    def test_disconnected_all_unreachable(self):
        e = eccentricity_profile(all_pairs_distances(TWO_DISJOINT_EDGES))
        assert all(v == UNREACHABLE for v in e.ecc)
        assert e.diameter == UNREACHABLE

    def test_matches_oracle(self):
        for g in random_sample(max_n=7, seeds=range(8)):
            expected = oracles.eccentricities(g.adjacency_matrix())
            e = eccentricity_profile(all_pairs_distances(g))
            got = e.ecc.astype(float)
            got[got == UNREACHABLE] = np.inf
            assert np.array_equal(got, expected)

    def test_single_node(self):
        e = eccentricity_profile(all_pairs_distances(Graph.from_edges(1, [])))
        assert list(e.ecc) == [0] and e.diameter == 0


class TestCountSEll:
    def test_path_examples(self):
        e = eccentricity_profile(all_pairs_distances(path_graph(4)))
        assert count_s_ell(e, 1) == 0
        assert count_s_ell(e, 2) == 2
        assert count_s_ell(e, 3) == 4

    def test_disconnected_is_zero_for_every_ell(self):
        e = eccentricity_profile(all_pairs_distances(TWO_DISJOINT_EDGES))
        assert all(count_s_ell(e, ell) == 0 for ell in range(1, 6))

    def test_requires_positive_ell(self):
        e = eccentricity_profile(all_pairs_distances(path_graph(3)))
        with pytest.raises(ValueError):
            count_s_ell(e, 0)

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=2, max_value=9))
    @settings(max_examples=40)
    def test_monotone_in_ell_and_saturates_at_diameter(self, seed, n):
        g = erdos_renyi(n, 0.5, seed=seed)
        e = eccentricity_profile(all_pairs_distances(g))
        counts = [count_s_ell(e, ell) for ell in range(1, n + 2)]
        assert counts == sorted(counts)
        if e.diameter != UNREACHABLE:
            assert count_s_ell(e, e.diameter) == g.n


class TestPowerGraph:
    def test_path_squared(self):
        g = path_graph(4)
        p = power_graph(all_pairs_distances(g), 2)
        assert set(p.edges()) == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}
        assert p.m == 5

    def test_path_cubed_is_complete(self):
        g = path_graph(4)
        assert power_graph(all_pairs_distances(g), 3) == complete_graph(4)

    def test_ell_one_is_identity(self):
        for g in (path_graph(5), cycle_graph(6), TWO_DISJOINT_EDGES, random_tree(9, seed=2)):
            assert power_graph(all_pairs_distances(g), 1) == g

    def test_matches_bruteforce_oracle(self):
        for g in random_sample(max_n=7, seeds=range(6)):
            d = all_pairs_distances(g)
            for ell in (1, 2, 3, 5):
                expected = oracles.power_adjacency(g.adjacency_matrix(), ell)
                assert np.array_equal(power_graph(d, ell).adjacency_matrix(), expected)

    def test_edge_count_monotone_in_ell(self):
        for seed in range(6):
            g = erdos_renyi(9, 0.3, seed=seed)
            d = all_pairs_distances(g)
            counts = [power_graph(d, ell).m for ell in range(1, 10)]
            assert counts[0] == g.m
            assert counts == sorted(counts)

    def test_degree_full_count_equals_s_ell_for_connected(self):
        for seed in range(8):
            g = random_tree(10, seed=seed)
            d = all_pairs_distances(g)
            e = eccentricity_profile(d)
            for ell in range(1, e.diameter + 1):
                p = power_graph(d, ell)
                full = int((p.degrees() == g.n - 1).sum())
                assert full == count_s_ell(e, ell)

    def test_rejects_bad_arguments(self):
        g = path_graph(3)
        d = all_pairs_distances(g)
        with pytest.raises(ValueError):
            power_graph(d, 0)


def assert_power_edges_match(g: Graph, ells) -> None:
    """``power_edges`` gives ``power_graph``'s upper edges and, serialized, its edge list."""
    d = all_pairs_distances(g)
    for ell in ells:
        us, vs = power_edges(g, ell)
        want = power_graph(d, ell)
        assert all(np.array_equal(a, b) for a, b in zip((us, vs), want._upper_edges())), ell
        assert serialize_edges(g.n, us, vs) == serialize_edge_list(want), ell


def word_boundary_graphs(n: int) -> list[Graph]:
    """Sparse and dense ER, a tree, a star, and a split graph with isolated nodes, on n nodes."""
    split = Graph.from_edges(n, [(i, i + 1) for i in range(n - 3) if i + 1 != n // 2])
    return [*(erdos_renyi(n, p, seed=n) for p in (min(1.0, 2.0 / n), 0.5)), random_tree(n, seed=n), star_graph(n), split]


@st.composite
def graphs_up_to(draw, max_n: int) -> Graph:
    """Any graph on 1..max_n nodes with up to 3n drawn edges (repeats collapse)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return Graph.from_edges(n, draw(st.lists(pair, max_size=3 * n)) if n > 1 else [])


class TestBoundedSearch:
    """``power_edges``: G^ell read from a search stopped after ell levels, no distance matrix."""

    GRAPHS = [
        erdos_renyi(30, 0.1, seed=1),
        erdos_renyi(70, 0.05, seed=2),
        random_tree(50, seed=3),
        path_graph(12),
        Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)]),
        Graph.from_edges(1, []),
    ]

    @pytest.mark.parametrize("g", GRAPHS, ids=repr)
    def test_power_graph_matches_full_search(self, g):
        top = max(int(all_pairs_distances(g).max()), 1) + 1
        assert_power_edges_match(g, range(1, top + 1))

    def test_rejects_depth_below_one(self):
        for ell in (0, -1):
            with pytest.raises(ValueError, match=rf"^ell must be >= 1, got {ell}$"):
                power_edges(path_graph(3), ell)

    def test_refuses_n_above_the_limit_before_searching(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_NODES", 5)
        with pytest.raises(ValueError, match=r"^n=6 exceeds the limit of 5 nodes"):
            power_edges(path_graph(6), 2)

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129])
    def test_word_boundaries(self, n):
        for g in word_boundary_graphs(n):
            diameter = int(all_pairs_distances(g).max())
            assert_power_edges_match(g, [*range(1, diameter + 2), 10**20])

    @given(graphs_up_to(70))
    @settings(max_examples=40, deadline=None)
    def test_matches_power_graph_on_random_graphs(self, g):
        diameter = int(all_pairs_distances(g).max())
        assert_power_edges_match(g, [*range(1, diameter + 2), 10**20])


class TestArrayRecords:
    def test_compared_by_identity_and_hashable(self):
        # the generated __eq__ would compare numpy arrays and raise on their truth value
        d = all_pairs_distances(cycle_graph(5))
        e = eccentricity_profile(d)
        assert (e == eccentricity_profile(d)) is False
        assert e == e and hash(e) == hash(e)


class TestNarrowDistances:
    """Distances stay in int8 (int16 past 127): comparisons with large ells still hold."""

    LONG = [path_graph(10), random_tree(60, seed=4), path_graph(200)]

    @pytest.mark.parametrize("g", LONG, ids=repr)
    def test_huge_ell_counts_every_node(self, g):
        d = all_pairs_distances(g)
        assert d.dtype == (np.int16 if g.n == 200 else np.int8)
        e = eccentricity_profile(d)
        assert e.ecc.dtype == d.dtype
        assert count_s_ell(e, e.diameter - 1) < g.n
        for ell in (e.diameter, 1000, 10**6, 10**20):
            assert count_s_ell(e, ell) == g.n

    @pytest.mark.parametrize("g", LONG, ids=repr)
    def test_huge_ell_power_is_complete(self, g):
        d = all_pairs_distances(g)
        for ell in (1000, 10**6):
            assert power_graph(d, ell) == complete_graph(g.n)
            assert_power_edges_match(g, [ell])

    @pytest.mark.parametrize("tail", [5, 150])
    def test_disconnected_keeps_unreachable(self, tail):
        # a path of ``tail`` nodes plus an isolated node: int8 for 5, int16 for 150
        g = Graph.from_edges(tail + 1, [(i, i + 1) for i in range(tail - 1)])
        d = all_pairs_distances(g)
        assert d.dtype == (np.int8 if tail <= 128 else np.int16)
        assert (d[tail, :tail] == UNREACHABLE).all() and d[0, tail - 1] == tail - 1
        e = eccentricity_profile(d)
        assert (e.ecc == UNREACHABLE).all() and e.diameter == UNREACHABLE
        assert count_s_ell(e, 10**6) == 0
        p = power_graph(d, 10**6)
        assert p.degrees()[tail] == 0 and p.m == tail * (tail - 1) // 2
