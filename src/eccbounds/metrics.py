"""Shortest-path distances, eccentricities, threshold counts, and graph powers.

One core, ``all_pairs_distances_stack``, searches B graphs of one order in
one ``_kernels.bfs_all_pairs`` call and returns their (B, n, n) distance
stack; ``all_pairs_distances`` is the core on a stack of one, so a lone
graph and a batch member get the same distances. Of the eccentricities the
bounds read only s_ell and the diameter: ``eccentricities`` sorts them, of a
matrix or of each member of a stack in the same pass, so ``count_s_ell`` is
one bisection and the diameter the last entry. ``power_adjacency`` takes a
list of ells and broadcasts their masks as one stack.
``all_pairs_distances_stack`` and ``power_blocks`` refuse n above
``graphs.MAX_NODES`` before searching.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Final, Iterator, Sequence

import numpy as np

from . import _kernels
from .graphs import Graph, check_node_count

#: Sentinel for "no path exists" in distance matrices and eccentricity lists.
#: Kept negative so it can never be mistaken for a true distance, and so that
#: naive comparisons like ``d <= ell`` must mask it out explicitly.
UNREACHABLE: Final[int] = -1


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
    node i as row b * n + i, so reach never leaves a member: a lone graph's own
    CSR, the packed CSR that ``graphs.DrawnGraphs`` keep from their draw, or
    else one packed here from the members' CSRs. The stack is in
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
    elif (packed := getattr(graphs, "packed", None)) is not None:  # a drawn batch's own, while unchanged
        indptr, indices = packed
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


def eccentricities(dist: np.ndarray) -> list:
    """The eccentricities of a distance matrix, ascending, as a list of ints: (n, n) gives one list of n,
    a (B, n, n) stack one such list per member.

    A node that misses some node has eccentricity UNREACHABLE. In a disconnected
    graph every node misses one, so its list is all UNREACHABLE; otherwise the
    last entry is the diameter.
    """
    ecc = dist.max(axis=-1)
    ecc[(dist == UNREACHABLE).any(axis=-1)] = UNREACHABLE
    ecc.sort(axis=-1)
    return ecc.tolist()


def count_s_ell(eccs: list[int], ell: int) -> int:
    """s_ell, the number of nodes of eccentricity at most ell, from the ascending ``eccentricities`` list.

    Zero for a disconnected graph, whose eccentricities are all UNREACHABLE.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    return 0 if eccs[-1] == UNREACHABLE else bisect_right(eccs, ell)


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
