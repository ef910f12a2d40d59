"""Shortest-path distances, eccentricities, threshold counts, and graph powers.

``all_pairs_distances`` and ``power_edges`` refuse n above ``graphs.MAX_NODES`` before searching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Final

import numpy as np

from . import _kernels
from .graphs import Graph, check_node_count

#: Sentinel for "no path exists" in distance and eccentricity arrays.
#: Kept negative so it can never be mistaken for a true distance, and so that
#: naive comparisons like ``d <= ell`` must mask it out explicitly.
UNREACHABLE: Final[int] = -1

@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Exact BFS distances; UNREACHABLE marks no path.

    ``dist`` (n x n, the one record of n) is in the narrowest signed integer type
    holding the largest distance found (int8 up to 127, 1 byte a pair on most
    graphs): compare it with Python ints, and widen it before arithmetic that could overflow.
    """

    dist: np.ndarray  # (n, n), int8 while every distance is <= 127, else int16 or wider

    def __post_init__(self):
        self.dist.flags.writeable = False


@dataclass(frozen=True, eq=False)
class EccentricityProfile:
    """Per-node eccentricities and the diameter.

    A node unable to reach some other node has eccentricity UNREACHABLE; the
    diameter is UNREACHABLE exactly when the graph is disconnected (n >= 2).
    """

    ecc: np.ndarray  # (n,), the integer type of the distance matrix it was read from
    diameter: int

    def __post_init__(self):
        self.ecc.flags.writeable = False


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every node; UNREACHABLE across components."""
    if g.n < 1:
        raise ValueError(f"node count must be >= 1, got {g.n}")
    check_node_count(g.n)
    return DistanceMatrix(_kernels.bfs_all_pairs(g.indptr, g.indices, g.n))


def eccentricity_profile(d: DistanceMatrix) -> EccentricityProfile:
    has_unreachable = (d.dist == UNREACHABLE).any(axis=1)
    ecc = d.dist.max(axis=1)
    ecc[has_unreachable] = UNREACHABLE
    diameter = UNREACHABLE if has_unreachable.any() else int(ecc.max())
    return EccentricityProfile(ecc, diameter)


def count_s_ell(e: EccentricityProfile, ell: int) -> int:
    """Number of nodes with finite eccentricity at most ell.

    Zero for disconnected graphs, where every eccentricity is UNREACHABLE.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    return int(np.count_nonzero((e.ecc >= 0) & (e.ecc <= ell)))


def power_graph(d: DistanceMatrix, ell: int) -> Graph:
    """G^ell from G's distance matrix alone: an edge wherever 1 <= distance <= ell."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    adj = d.dist > 0
    adj &= d.dist <= ell
    return Graph.from_adjacency(adj)


def power_edges(g: Graph, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """``power_graph(d, ell)._upper_edges()`` without d: read from ell levels of the BFS."""
    check_node_count(g.n)
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    return _kernels.power_pairs(g.indptr, g.indices, g.n, ell)
