"""Independent reference implementations used as oracles by the test suite.

Nothing here shares code with the package under test: distances come from
Floyd-Warshall instead of BFS, spectra come from scipy's implicit-QR LAPACK
driver (``dsyev``) or integer characteristic-polynomial arithmetic instead of
the package's numpy ``eigh`` (divide and conquer, ``dsyevd``) and Jacobi
sweeps, and expected eigenvalues come from closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.linalg


def floyd_warshall(adj: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths on a 0/1 adjacency matrix; inf = unreachable."""
    n = adj.shape[0]
    dist = np.where(adj > 0, 1.0, np.inf)
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def connected(adj: np.ndarray) -> bool:
    """Every pair joined by a path, by Floyd-Warshall."""
    return bool(np.isfinite(floyd_warshall(adj)).all())


def power_adjacency(adj: np.ndarray, ell: int) -> np.ndarray:
    """Brute-force power graph: edge wherever 1 <= distance <= ell."""
    dist = floyd_warshall(adj)
    return ((dist >= 1) & (dist <= ell)).astype(np.int64)


def eccentricities(adj: np.ndarray) -> np.ndarray:
    """Per-node eccentricities; inf where some node is unreachable."""
    return floyd_warshall(adj).max(axis=1)


def sorted_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, by implicit QR (scipy's own LAPACK ``dsyev``).

    The package seeds its solver with numpy's divide-and-conquer ``eigh``; a
    different algorithm from a different build keeps the oracle independent.
    """
    return scipy.linalg.eigvalsh(a, driver="ev")


def char_poly_value(a: np.ndarray, lam: int) -> Fraction:
    """det(A - lam*I) by exact fraction-free cofactor expansion.

    Exact rational arithmetic, so a return value of 0 proves lam is an
    eigenvalue of the integer matrix A. Intended for tiny matrices only.
    """
    n = a.shape[0]
    m = [[Fraction(int(a[i, j])) - (Fraction(lam) if i == j else 0) for j in range(n)] for i in range(n)]

    def det(rows: list[list[Fraction]]) -> Fraction:
        if len(rows) == 1:
            return rows[0][0]
        total = Fraction(0)
        for j, head in enumerate(rows[0]):
            if head == 0:
                continue
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            total += (-1) ** j * head * det(minor)
        return total

    return det(m)


def lambda2_path(n: int) -> float:
    return 4.0 * math.sin(math.pi / (2 * n)) ** 2


def lambda2_cycle(n: int) -> float:
    return 2.0 * (1.0 - math.cos(2 * math.pi / n))


def lambda2_complete(n: int) -> float:
    return float(n)


def lambda2_star(n: int) -> float:
    del n
    return 1.0
