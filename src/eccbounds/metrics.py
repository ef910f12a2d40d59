"""Shortest-path distances, eccentricities, threshold counts, and graph powers.

One core, ``all_pairs_distances_stack``, searches B graphs of one order in
one ``_kernels.bfs_all_pairs`` call and returns their (B, n, n) distance
stack; ``all_pairs_distances`` is the core on a stack of one, so a lone
graph and a batch member get the same distances. Likewise
``eccentricity_profiles`` reads the profiles of a whole stack in one pass, and
``eccentricity_profile`` is its stack of one; ``power_adjacency`` takes a
list of ells and broadcasts their masks as one stack.
``all_pairs_distances_stack`` and ``power_blocks`` refuse n above
``graphs.MAX_NODES`` before searching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Final, Iterator, Sequence

import numpy as np

from . import _kernels
from .graphs import Graph, check_node_count

#: Sentinel for "no path exists" in distance and eccentricity arrays.
#: Kept negative so it can never be mistaken for a true distance, and so that
#: naive comparisons like ``d <= ell`` must mask it out explicitly.
UNREACHABLE: Final[int] = -1


@dataclass(frozen=True, eq=False)
class EccentricityProfile:
    """Per-node eccentricities, the diameter, and the cumulative eccentricity counts.

    A node unable to reach some other node has eccentricity UNREACHABLE; the
    diameter is UNREACHABLE exactly when the graph is disconnected (n >= 2).
    ``at_most[k]`` is the number of nodes of finite eccentricity at most k,
    for k up to the largest finite one; it is empty when none is finite.
    """

    ecc: np.ndarray  # (n,), the integer type of the distance matrix it was read from
    diameter: int
    at_most: np.ndarray

    def __post_init__(self):
        self.ecc.flags.writeable = False
        self.at_most.flags.writeable = False


def all_pairs_distances(g: Graph) -> np.ndarray:
    """BFS from every node: the read-only (n, n) distance matrix, UNREACHABLE across components.

    It is in the narrowest signed integer type holding the largest distance
    found (int8 up to 127, 1 byte a pair on most graphs): compare it with
    Python ints, and widen it before arithmetic that could overflow. The
    stacked core on a stack of one.
    """
    return all_pairs_distances_stack([g])[0]


def all_pairs_distances_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """The read-only (B, n, n) stack of the distance matrices of B graphs of one order, from one search.

    The graphs go to ``_kernels.bfs_all_pairs`` packed as one CSR, member b's
    node i as row b * n + i, so reach never leaves a member. The stack is in
    the narrowest signed type that holds the largest distance of any member;
    within it each member's distances are exactly its lone ones. Raises
    ValueError for no graphs, graphs of different orders, or n < 1, and
    refuses n above MAX_NODES.
    """
    orders = {g.n for g in graphs}
    if len(orders) != 1:
        raise ValueError(f"distance stack needs one or more graphs of one order, got n in {sorted(orders)}")
    n = orders.pop()
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    check_node_count(n)
    if len(graphs) == 1:  # a lone graph's CSR is already its packing
        indptr, indices = graphs[0].indptr, graphs[0].indices
    else:
        sizes = [g.indices.size for g in graphs]
        indptr = np.zeros(len(graphs) * n + 1, dtype=np.int64)
        indptr[1:] = np.concatenate([g.indptr[1:] for g in graphs])
        indptr[1:] += np.repeat(np.cumsum(sizes) - sizes, n)
        indices = np.concatenate([g.indices for g in graphs])
        indices += np.repeat(np.arange(len(graphs)) * n, sizes)  # member b's node i is row b * n + i
    dist = _kernels.bfs_all_pairs(indptr, indices, n)
    dist.flags.writeable = False
    return dist


def eccentricity_profile(dist: np.ndarray) -> EccentricityProfile:
    """The eccentricity profile of one (n, n) distance matrix: the stacked core on a stack of one."""
    return eccentricity_profiles(dist[None])[0]


def eccentricity_profiles(dist: np.ndarray) -> list[EccentricityProfile]:
    """The profile of each member of a (B, n, n) distance stack, read in one pass over the stack.

    Member b's ``ecc`` is a row of one (B, n) array in the stack's type, and its
    ``at_most`` the first diameter + 1 entries of a row of one cumulative
    (member, eccentricity) count; each equals the lone profile of ``dist[b]``.
    """
    ecc = dist.max(axis=2)
    ecc[(dist == UNREACHABLE).any(axis=2)] = UNREACHABLE
    # a node of a disconnected graph misses some node, so every one of its nodes does, and
    # its largest eccentricity, the diameter, is UNREACHABLE
    diameters = ecc.max(axis=1)
    # member b's bins are b * (n + 1) + 1 + e for e = UNREACHABLE (dropped), 0, ..., n - 1
    count, n = ecc.shape
    bins = ecc + np.arange(1, count * (n + 1), n + 1)[:, None]
    counts = np.bincount(bins.ravel(), minlength=count * (n + 1)).reshape(count, n + 1)
    at_most = counts[:, 1:].cumsum(axis=1)
    return [
        EccentricityProfile(e, d, row[: d + 1])
        for e, d, row in zip(ecc, diameters.tolist(), at_most)
    ]


def count_s_ell(e: EccentricityProfile, ell: int) -> int:
    """Number of nodes with finite eccentricity at most ell, read from ``e.at_most``.

    Zero for disconnected graphs, where every eccentricity is UNREACHABLE.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    return int(e.at_most[min(ell, e.at_most.size - 1)]) if e.at_most.size else 0


def power_adjacency(dist: np.ndarray, ell: int | list[int]) -> np.ndarray:
    """G^ell's dense boolean adjacency matrix from G's distance matrix: 1 <= distance <= ell.

    ``ell`` may also be a list of k ells: their k adjacencies then come as one
    (k, n, n) stack, of one (n, n) matrix or, from a (k, n, n) stack of them,
    member i's at ell[i]. Either way it is one broadcast, in ``dist``'s type:
    no distance exceeds that type's largest value, so a larger ell (any Python
    int) is clipped to it first.
    """
    low = min(ell) if isinstance(ell, list) else ell
    if low < 1:
        raise ValueError(f"ell must be >= 1, got {low}")
    top = (1 << 8 * dist.itemsize - 1) - 1  # the largest value of dist's signed type
    ells = [min(e, top) for e in ell] if isinstance(ell, list) else min(ell, top)
    adj = dist <= np.array(ells, dtype=dist.dtype)[..., None, None]
    adj &= dist > 0
    return adj


def power_graph(dist: np.ndarray, ell: int) -> Graph:
    """G^ell from G's distance matrix alone: an edge wherever 1 <= distance <= ell."""
    return Graph.from_adjacency(power_adjacency(dist, ell))


def power_blocks(g: Graph, ell: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """G^ell's upper edges (u, v), u < v, as lexicographic blocks of endpoint arrays (us, vs).

    Refuses n above MAX_NODES and ell < 1, then runs ell levels of the BFS, all
    on the call; each block is read from the search's rows when it is taken
    (``_kernels.power_pairs``).
    """
    check_node_count(g.n)
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    return _kernels.power_pairs(g.indptr, g.indices, g.n, ell)
