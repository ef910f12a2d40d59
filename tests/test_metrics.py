"""Distances, eccentricities, s_ell counts, and power graphs."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from eccbounds import _kernels, graphs
from eccbounds.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    erdos_renyi_batch,
    path_graph,
    random_tree,
    serialize_edge_list,
    serialize_edges,
    star_graph,
)
from eccbounds.metrics import (
    UNREACHABLE,
    all_pairs_distances,
    all_pairs_distances_stack,
    count_s_ell,
    eccentricities,
    power_adjacency,
    power_blocks,
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


def oracle_distances(g: Graph) -> np.ndarray:
    """Floyd-Warshall distances of g with UNREACHABLE for inf, as int64."""
    fw = oracles.floyd_warshall(g.adjacency_matrix())
    return np.where(np.isinf(fw), UNREACHABLE, fw).astype(np.int64)


def mixed_batch(n: int, seed: int) -> list[Graph]:
    """Graphs of order n: connected, disconnected, edgeless and with isolated nodes, in a seeded order."""
    rng = np.random.default_rng(seed)
    if n == 1:
        return [Graph.from_edges(1, [])] * 3
    members = [path_graph(n), star_graph(n), Graph.from_edges(n, []), random_tree(n, seed=seed)]
    members += [erdos_renyi(n, min(p, 1.0), seed=seed + k) for k, p in enumerate((1.5 / n, 3.0 / n, 0.5))]
    if n >= 4:
        # two components and an isolated node between them
        half = n // 2
        members.append(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1) if i not in (half - 1, half)]))
    return [members[k] for k in rng.permutation(len(members))]


class TestDistanceStack:
    """One search of several graphs of one order: each member its own distances, never a neighbour's."""

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 63, 64, 65])
    def test_each_member_matches_floyd_warshall(self, n):
        batch = mixed_batch(n, seed=n)
        stack = all_pairs_distances_stack(batch)
        assert stack.shape == (len(batch), n, n) and not stack.flags.writeable
        assert stack.dtype == np.int8
        for g, dist in zip(batch, stack):
            assert np.array_equal(dist, oracle_distances(g))

    def test_a_130_node_path_sets_int16_for_the_whole_batch(self):
        batch = mixed_batch(130, seed=130)
        stack = all_pairs_distances_stack(batch)
        assert stack.dtype == np.int16
        lone = [all_pairs_distances(g) for g in batch]
        assert [d.dtype for d in lone].count(np.int16) == 1  # only the path needs it alone
        for g, dist, alone in zip(batch, stack, lone):
            assert np.array_equal(dist, oracle_distances(g)) and np.array_equal(dist, alone)

    @pytest.mark.parametrize("g", [path_graph(7), TWO_DISJOINT_EDGES, Graph.from_edges(1, []), path_graph(200)])
    def test_a_batch_of_one_is_bitwise_the_lone_result(self, g):
        stack, lone = all_pairs_distances_stack([g]), all_pairs_distances(g)
        assert stack.shape == (1, g.n, g.n)
        assert stack.dtype == lone.dtype and stack[0].tobytes() == lone.tobytes()

    def test_members_in_any_order_get_the_same_distances(self):
        batch = mixed_batch(20, seed=3)
        forward, backward = all_pairs_distances_stack(batch), all_pairs_distances_stack(batch[::-1])
        assert np.array_equal(forward, backward[::-1])

    @pytest.mark.parametrize("graphs, message", [
        ([], r"one order, got n in \[\]"),
        ([path_graph(3), path_graph(4)], r"one order, got n in \[3, 4\]"),
    ])
    def test_refuses_no_graphs_and_mixed_orders(self, graphs, message):
        with pytest.raises(ValueError, match=message):
            all_pairs_distances_stack(graphs)

    def test_refuses_n_above_the_limit_before_searching(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_NODES", 5)
        with pytest.raises(ValueError, match="exceeds the limit"):
            all_pairs_distances_stack([path_graph(6), path_graph(6)])


class TestDrawnSearch:
    """A drawn Erdos-Renyi batch is searched from the packed CSR of its draw, each member bitwise its lone search."""

    @pytest.mark.parametrize("n", [2, 12, 63, 64, 65])
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 1.0])
    def test_each_member_is_its_lone_search(self, monkeypatch, n, p):
        batch = erdos_renyi_batch(n, p, 6, seed=n)
        if p == 0.05:
            assert any((g.degrees() == 0).any() for g in batch)  # members with isolated nodes
        search, packings = _kernels.bfs_all_pairs, []
        monkeypatch.setattr(_kernels, "bfs_all_pairs", lambda *csr: packings.append(csr[:2]) or search(*csr))
        stack = all_pairs_distances_stack(batch)
        (indptr, indices), = packings
        assert indptr is batch.packed[0] and indices is batch.packed[1]  # as drawn, not packed again
        monkeypatch.undo()
        for g, dist in zip(batch, stack):
            lone = all_pairs_distances(g)
            assert dist.dtype == lone.dtype and dist.tobytes() == lone.tobytes()
        apart = all_pairs_distances_stack(list(batch))  # the same graphs packed one by one
        assert apart.dtype == stack.dtype and apart.tobytes() == stack.tobytes()

    def test_a_changed_batch_is_packed_again(self):
        batch = erdos_renyi_batch(12, 0.3, 4, seed=3)
        drawn = all_pairs_distances_stack(batch)
        assert batch.packed is not None
        batch.reverse()
        assert batch.packed is None
        assert all_pairs_distances_stack(batch).tobytes() == drawn[::-1].tobytes()
        batch.reverse()
        assert batch.packed is not None


class TestEccentricityProfile:
    """``eccentricities`` of one distance matrix: the ascending list of its nodes' eccentricities."""

    def test_path(self):
        assert eccentricities(all_pairs_distances(path_graph(4))) == [2, 2, 3, 3]

    def test_complete(self):
        assert eccentricities(all_pairs_distances(complete_graph(4))) == [1, 1, 1, 1]

    def test_disconnected_all_unreachable(self):
        assert eccentricities(all_pairs_distances(TWO_DISJOINT_EDGES)) == [UNREACHABLE] * 4

    def test_matches_oracle(self):
        for g in random_sample(max_n=7, seeds=range(8)):
            expected = oracles.sorted_eccentricities(g.adjacency_matrix(), UNREACHABLE)
            assert eccentricities(all_pairs_distances(g)) == expected.tolist()

    def test_single_node(self):
        assert eccentricities(all_pairs_distances(Graph.from_edges(1, []))) == [0]


class TestEccentricityProfiles:
    """``eccentricities`` of a distance stack: each member's list is its lone one, never a neighbour's."""

    @staticmethod
    def assert_lone_and_direct(dist: np.ndarray, e: list) -> None:
        """``e`` equals ``eccentricities(dist)``, holds Python ints and is read directly from dist, ascending."""
        assert e == eccentricities(dist)
        assert all(type(v) is int for v in e)
        reach = dist >= 0
        ecc = np.where(reach.all(axis=1), dist.max(axis=1), UNREACHABLE)
        assert e == sorted(ecc.tolist())

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 65, 130])
    def test_each_member_is_its_lone_profile(self, n):
        stack = all_pairs_distances_stack(mixed_batch(n, seed=n))
        lists = eccentricities(stack)
        assert len(lists) == len(stack)
        for dist, e in zip(stack, lists):
            self.assert_lone_and_direct(dist, e)

    @pytest.mark.parametrize("batch", [
        [Graph.from_edges(4, []), TWO_DISJOINT_EDGES, Graph.from_edges(4, [(0, 1)])],
        [TWO_DISJOINT_EDGES, path_graph(4), Graph.from_edges(4, [(0, 1), (1, 2)]), complete_graph(4)],
        [Graph.from_edges(1, [])],
    ], ids=["all-disconnected", "mixed", "one-node"])
    def test_disconnected_members_and_isolated_nodes(self, batch):
        stack = all_pairs_distances_stack(batch)
        for dist, e in zip(stack, eccentricities(stack)):
            self.assert_lone_and_direct(dist, e)


class TestCountSEll:
    def test_path_examples(self):
        e = eccentricities(all_pairs_distances(path_graph(4)))
        assert count_s_ell(e, 1) == 0
        assert count_s_ell(e, 2) == 2
        assert count_s_ell(e, 3) == 4

    def test_disconnected_is_zero_for_every_ell(self):
        e = eccentricities(all_pairs_distances(TWO_DISJOINT_EDGES))
        assert all(count_s_ell(e, ell) == 0 for ell in range(1, 6))

    def test_requires_positive_ell(self):
        e = eccentricities(all_pairs_distances(path_graph(3)))
        with pytest.raises(ValueError):
            count_s_ell(e, 0)

    def test_matches_a_direct_count(self):
        # the bisection against counting the oracle's eccentricities up to ell
        special = [star_graph(n) for n in (2, 3, 10)] + [path_graph(n) for n in (2, 5, 9, 130)]
        special += [TWO_DISJOINT_EDGES, Graph.from_edges(6, [(0, 1), (1, 2)]), Graph.from_edges(1, [])]
        for g in random_sample(max_n=9, seeds=range(4)) + special:
            ecc = oracles.eccentricities(g.adjacency_matrix())
            e = eccentricities(all_pairs_distances(g))
            for ell in range(1, g.n + 3):
                assert count_s_ell(e, ell) == int(np.count_nonzero(ecc <= ell)), (g, ell)

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=2, max_value=9))
    @settings(max_examples=40)
    def test_monotone_in_ell_and_saturates_at_diameter(self, seed, n):
        g = erdos_renyi(n, 0.5, seed=seed)
        e = eccentricities(all_pairs_distances(g))
        counts = [count_s_ell(e, ell) for ell in range(1, n + 2)]
        assert counts == sorted(counts)
        if e[-1] != UNREACHABLE:
            assert count_s_ell(e, e[-1]) == g.n


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
            e = eccentricities(d)
            for ell in range(1, e[-1] + 1):
                p = power_graph(d, ell)
                full = int((p.degrees() == g.n - 1).sum())
                assert full == count_s_ell(e, ell)

    def test_rejects_bad_arguments(self):
        g = path_graph(3)
        d = all_pairs_distances(g)
        with pytest.raises(ValueError):
            power_graph(d, 0)


def assert_power_edges_match(g: Graph, ells) -> None:
    """``power_blocks``, joined, give ``power_graph``'s upper edges and, serialized, its edge list."""
    d = all_pairs_distances(g)
    for ell in ells:
        us, vs = (np.concatenate(ends) for ends in zip(*power_blocks(g, ell)))
        want = power_graph(d, ell)
        assert all(np.array_equal(a, b) for a, b in zip((us, vs), want._upper_edges())), ell
        out = io.StringIO()
        serialize_edges(g.n, [(us, vs)], out)
        assert out.getvalue() == serialize_edge_list(want), ell


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
    """``power_blocks``: G^ell read from a search stopped after ell levels, no distance matrix."""

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
                power_blocks(path_graph(3), ell)

    def test_refuses_n_above_the_limit_before_searching(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_NODES", 5)
        with pytest.raises(ValueError, match=r"^n=6 exceeds the limit of 5 nodes"):
            power_blocks(path_graph(6), 2)

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


class TestNarrowDistances:
    """Distances stay in int8 (int16 past 127): comparisons with large ells still hold."""

    LONG = [path_graph(10), random_tree(60, seed=4), path_graph(200)]

    @pytest.mark.parametrize("g", LONG, ids=repr)
    def test_huge_ell_counts_every_node(self, g):
        d = all_pairs_distances(g)
        assert d.dtype == (np.int16 if g.n == 200 else np.int8)
        e = eccentricities(d)
        assert count_s_ell(e, e[-1] - 1) < g.n
        for ell in (e[-1], 1000, 10**6, 10**20):
            assert count_s_ell(e, ell) == g.n

    @pytest.mark.parametrize("g", LONG, ids=repr)
    def test_huge_ell_power_is_complete(self, g):
        d = all_pairs_distances(g)
        for ell in (1000, 10**6):
            assert power_graph(d, ell) == complete_graph(g.n)
            assert_power_edges_match(g, [ell])

    def test_an_ell_at_the_types_largest_value_reaches_that_distance(self):
        # a 128-node path is int8 with its ends 127 apart, the type's largest value: ell 127 and every
        # larger ell, clipped to 127, join them; ell 126 does not. A list broadcasts the same masks, over
        # one matrix or a stack of them
        d = all_pairs_distances(path_graph(128))
        assert d.dtype == np.int8 and d.max() == np.iinfo(np.int8).max
        full = ~np.eye(128, dtype=bool)
        for ell in (127, 128, 10**20):
            assert np.array_equal(power_adjacency(d, ell), full)
        assert not power_adjacency(d, 126)[0, 127] and power_adjacency(d, 126).sum() == full.sum() - 2
        ells = [126, 127, 10**20]
        for masks in (power_adjacency(d, ells), power_adjacency(np.stack([d] * 3), ells)):
            assert masks.dtype == bool and masks.shape == (3, 128, 128)
            for mask, ell in zip(masks, ells):
                assert np.array_equal(mask, power_adjacency(d, ell))

    @pytest.mark.parametrize("ell", [0, -1, [2, 0], [-(10**20), 3]])
    def test_power_adjacency_refuses_an_ell_below_one(self, ell):
        with pytest.raises(ValueError, match=f"^ell must be >= 1, got {np.min(ell)}$"):
            power_adjacency(all_pairs_distances(path_graph(4)), ell)

    @pytest.mark.parametrize("tail", [5, 150])
    def test_disconnected_keeps_unreachable(self, tail):
        # a path of ``tail`` nodes plus an isolated node: int8 for 5, int16 for 150
        g = Graph.from_edges(tail + 1, [(i, i + 1) for i in range(tail - 1)])
        d = all_pairs_distances(g)
        assert d.dtype == (np.int8 if tail <= 128 else np.int16)
        assert (d[tail, :tail] == UNREACHABLE).all() and d[0, tail - 1] == tail - 1
        e = eccentricities(d)
        assert e == [UNREACHABLE] * (tail + 1)
        assert count_s_ell(e, 10**6) == 0
        p = power_graph(d, 10**6)
        assert p.degrees()[tail] == 0 and p.m == tail * (tail - 1) // 2
