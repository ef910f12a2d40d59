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
class EccentricityProfile:
    """Per-node eccentricities and the diameter.

    A node unable to reach some other node has eccentricity UNREACHABLE; the
    diameter is UNREACHABLE exactly when the graph is disconnected (n >= 2).
    """

    ecc: np.ndarray  # (n,), the integer type of the distance matrix it was read from
    diameter: int

    def __post_init__(self):
        self.ecc.flags.writeable = False


def all_pairs_distances(g: Graph) -> np.ndarray:
    """BFS from every node: the read-only (n, n) distance matrix, UNREACHABLE across components.

    It is in the narrowest signed integer type holding the largest distance
    found (int8 up to 127, 1 byte a pair on most graphs): compare it with
    Python ints, and widen it before arithmetic that could overflow.
    """
    if g.n < 1:
        raise ValueError(f"node count must be >= 1, got {g.n}")
    check_node_count(g.n)
    dist = _kernels.bfs_all_pairs(g.indptr, g.indices, g.n)
    dist.flags.writeable = False
    return dist


def eccentricity_profile(dist: np.ndarray) -> EccentricityProfile:
    has_unreachable = (dist == UNREACHABLE).any(axis=1)
    ecc = dist.max(axis=1)
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


def power_graph(dist: np.ndarray, ell: int) -> Graph:
    """G^ell from G's distance matrix alone: an edge wherever 1 <= distance <= ell."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    adj = dist > 0
    adj &= dist <= ell
    return Graph.from_adjacency(adj)


def power_edges(g: Graph, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """``power_graph(dist, ell)._upper_edges()`` without dist: read from ell levels of the BFS."""
    check_node_count(g.n)
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    return _kernels.power_pairs(g.indptr, g.indices, g.n, ell)
