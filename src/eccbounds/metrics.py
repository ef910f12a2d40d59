"""Shortest-path distances, eccentricities, threshold counts, and graph powers.

``all_pairs_distances`` refuses n above ``graphs.MAX_NODES`` before its search.
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
    """Exact BFS distances; UNREACHABLE marks no path, or none within ``within`` edges.

    ``dist`` is in the narrowest signed integer type that holds the largest
    distance found (int8 up to 127, so 1 byte per pair on most graphs): compare
    it with Python ints, and widen it before arithmetic that could leave that range.
    """

    n: int
    dist: np.ndarray  # (n, n), int8 while every distance is <= 127, else int16 or wider
    within: int | None = None

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


def all_pairs_distances(g: Graph, within: int | None = None) -> DistanceMatrix:
    """BFS from every node, at most ``within`` levels deep; UNREACHABLE across components."""
    if g.n < 1:
        raise ValueError(f"node count must be >= 1, got {g.n}")
    check_node_count(g.n)
    if within is not None and within < 1:
        raise ValueError(f"within must be >= 1, got {within}")
    dist = _kernels.bfs_all_pairs(g.indptr, g.indices, g.n, within)
    return DistanceMatrix(g.n, dist, within)


def eccentricity_profile(d: DistanceMatrix) -> EccentricityProfile:
    if d.within is not None:
        raise ValueError(f"eccentricities need a full search, not one within {d.within}")
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


def power_graph(g: Graph, d: DistanceMatrix, ell: int) -> Graph:
    """Graph on the same nodes with an edge wherever 1 <= distance <= ell.

    A search bounded at ``within == ell`` already marks every farther pair
    UNREACHABLE, so there the mask is one pass, ``dist > 0``.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if d.n != g.n:
        raise ValueError(f"distance matrix is for n={d.n}, graph has n={g.n}")
    if d.within is not None and ell > d.within:
        raise ValueError(f"ell={ell} exceeds the search depth within={d.within}")
    adj = d.dist > 0
    if d.within != ell:
        adj &= d.dist <= ell
    return Graph.from_adjacency(adj)
