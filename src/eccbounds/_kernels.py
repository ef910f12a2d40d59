"""Hot numeric kernels: all-pairs BFS and cyclic Jacobi rotation sweeps."""

from __future__ import annotations

import numpy as np

_THETA_OVERFLOW = 1.0e150  # beyond this, tan(angle/2) collapses to 1/(2*theta)


def bfs_all_pairs(indptr, indices, n):
    """Level-by-level reachability expansion via BLAS matrix products."""
    adj = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    adj[rows, indices] = True
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    dist[adj] = 1
    reach = adj | np.eye(n, dtype=bool)
    adj_f = adj.astype(np.float64)
    level = 1
    while True:
        wider = (reach.astype(np.float64) @ adj_f) > 0.0
        new = wider & ~reach
        if not new.any():
            break
        level += 1
        dist[new] = level
        reach |= new
    return dist


def jacobi_sweeps(a, v, off_tol, max_sweeps):
    """Row-cyclic Jacobi sweeps with vectorized rotation application."""
    n = a.shape[0]
    for sweep in range(1, max_sweeps + 1):
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                if abs(theta) > _THETA_OVERFLOW:
                    t = 0.5 / theta
                elif theta >= 0.0:
                    t = 1.0 / (theta + np.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (np.sqrt(theta * theta + 1.0) - theta)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                ap = a[:, p].copy()
                aq = a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                ap = a[p, :].copy()
                aq = a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = s * ap + c * aq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        off = np.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))
        if off <= off_tol:
            return sweep, True
    return max_sweeps, False
