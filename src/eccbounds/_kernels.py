"""Hot numeric kernels: all-pairs BFS and cyclic Jacobi rotation sweeps.

``bfs_all_pairs`` is a bit-parallel BFS that runs all n searches at once
(after Akiba, Iwata & Yoshida, SIGMOD 2013). Each node's reach set is a row
of ceil(n/64) uint64 words, and one level widens every row by OR-ing its
neighbours' rows over the CSR lists. That costs O(diameter * m * n/64) word
operations and uses no BLAS, so distances do not depend on the BLAS build
or thread count. After k levels a row holds exactly the nodes within k, so
G^ell needs only a search bounded at ell levels, at O(ell * m * n/64).
``jacobi_sweeps`` is the Jacobi half of the eigensolver and owns every
Jacobi decision: given a (B, n, n) stack and LAPACK ``eigh``'s basis Q, it
forms W = Q^T A Q, tests the stopping rule (OFF_DIAG_REL_TOL) for every
member in one pass, sweeps only the members that fail it, raises
JacobiConvergenceError at MAX_SWEEPS, and returns ascending eigenpairs. A
sweep rotates n // 2 disjoint pairs per numpy step in round-robin order
(Brent & Luk, 1985), n - 1 O(n^2) steps a sweep. After ``eigh`` the
off-diagonal norm is a small fraction of the target: 0.16% on the hypercube
Q10 (n = 1,024), 0.36% on the 40 x 50 grid (n = 2,000), and 0.29-0.30% on
ER n = 1,000 for L(G), the g1 and g2 certificate matrices and L(G^2). So a
solve normally runs 0 sweeps and never builds the round-robin schedule.
"""

from __future__ import annotations

import numpy as np

_THETA_OVERFLOW = 1.0e150  # beyond this, tan(angle/2) collapses to 1/(2*theta)
_GATHER_WORDS = 1 << 20  # cap on the neighbour rows gathered at once (8 MB)

#: Convergence: off-diagonal Frobenius norm <= this factor times ||A||_F.
OFF_DIAG_REL_TOL = 1e-12
#: Hard cap on full cyclic sweeps before giving up.
MAX_SWEEPS = 100


class JacobiConvergenceError(RuntimeError):
    """The sweep cap was reached before the off-diagonal mass vanished."""


def bfs_all_pairs(indptr, indices, n, depth=None):
    """All-pairs BFS distances from CSR lists, n searches in parallel as bitsets.

    Row i of ``reach`` holds, one bit per node, the nodes within ``level`` of
    node i. A level ORs each row with its neighbours' rows; the bits that
    appear are the nodes at distance ``level + 1``. The search stops at the
    first level that adds no bit, after diameter + 1 levels (the largest
    component's diameter when the graph is disconnected), or after ``depth``
    levels if sooner: pairs farther apart than ``depth`` then read -1.

    ``reduceat`` returns the element itself for an empty segment, so an
    isolated node is given one neighbour: row n of ``reach``, which stays
    zero. Distances are kept packed: bit b of each new node's distance goes
    into bit plane b, so the n x n matrix is unpacked once per plane
    (ceil(log2(min(diameter, depth) + 1)) planes) rather than once per level.

    Cost: O(min(diameter + 1, depth) * (m + n) * n/64) word operations.
    Memory: the (n, n) result at 1 byte per pair (2 beyond 127 levels) plus
    an n x n byte buffer while unpacking, the reach set and each plane at
    n * n/8 bytes, and a neighbour gather of at most 8 MB.

    Returns an (n, n) matrix in the narrowest signed type that holds the
    levels searched: int8 while the diameter (or ``depth``, if smaller) is at
    most 127, int16 up to 32767, and so on. It has 0 on the diagonal and -1
    where no path exists (of at most ``depth`` edges, if given).
    """
    words = (n + 63) // 64
    nodes = np.arange(n)
    reach = np.zeros((n + 1, words), dtype=np.uint64)
    reach[nodes, nodes // 64] = np.left_shift(np.uint64(1), (nodes % 64).astype(np.uint64))
    deg = np.diff(indptr)
    seg = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.maximum(deg, 1), out=seg[1:])
    nbrs = np.full(seg[-1], n, dtype=np.int64)
    edge_row = np.repeat(nodes, deg)
    nbrs[seg[edge_row] + np.arange(indices.size) - indptr[edge_row]] = indices
    # runs of rows whose neighbour lists fit the gather buffer; a row whose
    # list alone exceeds it gets a run of its own
    cap = max(1, _GATHER_WORDS // words)
    cuts = [0]
    while cuts[-1] < n:
        a = cuts[-1]
        cuts.append(max(a + 1, int(np.searchsorted(seg, seg[a] + cap, "right")) - 1))
    runs = [(a, b, nbrs[seg[a]:seg[b]], seg[a:b] - seg[a]) for a, b in zip(cuts[:-1], cuts[1:])]
    gathered = np.empty((max(r[2].size for r in runs), words), dtype=np.uint64)
    rows = reach[:n]
    new = np.empty((n, words), dtype=np.uint64)
    planes = []
    level = 0
    while level != depth:
        for a, b, run_nbrs, starts in runs:
            buf = gathered[: run_nbrs.size]
            reach.take(run_nbrs, axis=0, out=buf)
            np.bitwise_or.reduceat(buf, starts, axis=0, out=new[a:b])
        new &= ~rows
        if not new.any():
            break
        level += 1
        rows |= new
        if level.bit_length() > len(planes):
            planes.append(np.zeros((n, words), dtype=np.uint64))
        for b, plane in enumerate(planes):
            if level >> b & 1:
                plane |= new
    # assemble in the narrowest signed type that holds the planes, in place:
    # each fresh n x n array costs page faults, and numpy's int8 shift is slow
    small = np.min_scalar_type(-(1 << len(planes)))
    dist = _unpack(rows, n, small)
    dist -= 1  # -1 where unreached; reached pairs start at 0
    for b, plane in enumerate(planes):
        bit = _unpack(plane, n, small)
        if b:
            bit *= 1 << b
        dist |= bit
    return dist


def _unpack(bits, n, dtype):
    """(n, words) little-endian uint64 bitsets -> (n, n) 0/1 matrix of a signed ``dtype``."""
    as_bytes = bits.astype("<u8", copy=False).view(np.uint8)
    flags = np.unpackbits(as_bytes, axis=1, count=n, bitorder="little")
    return flags.view(dtype) if dtype.itemsize == 1 else flags.astype(dtype)


def round_robin(n):
    """One Jacobi sweep's pairs as (p, q) int arrays of shape (rounds, n // 2), p < q.

    Circle method: node 0 stays, the others turn one place per round; for odd
    n a dummy node n joins and its partner sits the round out. That is n - 1
    rounds (n for odd n) of disjoint pairs, covering every p < q exactly once.
    """
    m = max(n + n % 2, 2)
    circle = np.zeros((m - 1, m), dtype=np.int64)
    circle[:, 1:] = 1 + (np.arange(m - 1)[:, None] + np.arange(m - 1)) % (m - 1)
    first, second = circle[:, : m // 2], circle[:, : m // 2 - 1 : -1]
    p, q = np.minimum(first, second), np.maximum(first, second)
    return p[q < n].reshape(m - 1, n // 2), q[q < n].reshape(m - 1, n // 2)


@np.errstate(over="ignore")  # a subnormal a[p, q] gives theta = inf: the overflow branch
def jacobi_sweeps(a, basis):
    """Eigenpairs of each member of a symmetric (B, n, n) stack ``a`` from an approximate eigenbasis.

    Each member's W = basis^T a basis (symmetrised) is tested against the
    stopping rule sqrt(2 * sum(triu(W, 1)**2)) <= OFF_DIAG_REL_TOL * ||a||_F
    in one pass; only the members that fail it are swept, and the first that
    reaches MAX_SWEEPS raises JacobiConvergenceError (both constants are read
    at call time). Returns (sweeps, eigenvalues, vectors): the sweeps run in
    all, the (B, n) eigenvalues ascending and the (B, n, n) eigenvectors as
    columns in matching order. A sweep may rotate ``basis`` in place.
    """
    work = basis.transpose(0, 2, 1) @ a @ basis
    work = 0.5 * (work + work.transpose(0, 2, 1))  # exactly symmetric: x + y == y + x
    vectors = np.ascontiguousarray(basis)
    off_tol = OFF_DIAG_REL_TOL * np.linalg.norm(a, axis=(1, 2))
    norms = _off_norms(work)
    sweeps = 0
    # "<=" so that a NaN norm counts as unconverged
    for i in np.flatnonzero(~(norms <= off_tol)):
        sweeps += _sweep(work[i], vectors[i], off_tol[i], norms[i])
    eigenvalues = np.diagonal(work, axis1=1, axis2=2).copy()
    # sorted only where a diagonal is not ascending already: in 92 of the 100-trial ER n = 12
    # campaign's stacks, in none of 200 ER n = 50 Laplacians (about 40 us of a 1.5 ms analyze)
    if not (eigenvalues[:, 1:] >= eigenvalues[:, :-1]).all():
        order = np.argsort(eigenvalues, axis=1, kind="stable")
        eigenvalues = np.take_along_axis(eigenvalues, order, axis=1)
        vectors = np.take_along_axis(vectors, order[:, None, :], axis=2)
    return sweeps, eigenvalues, vectors


def _off_norms(a):
    """Off-diagonal Frobenius norms sqrt(2 * sum(triu(a, 1)**2)) of a (B, n, n) stack's members.

    The entries on and below the diagonal stay 0, as ``np.triu`` leaves them,
    so each member sums the same n * n terms in the same order.
    """
    nodes = np.arange(a.shape[-1])
    upper = np.where(nodes[:, None] < nodes, a, 0.0)
    upper *= upper
    norms = upper.reshape(len(a), -1).sum(axis=1)
    norms *= 2.0
    return np.sqrt(norms, out=norms)


def _sweep(a, v, off_tol, off):
    """Sweep one (n, n) matrix in place from off-diagonal norm ``off``; returns the sweeps run.

    A round's pairs are disjoint, so their rotations touch separate 2 x 2 blocks
    and commute: every (c, s) comes from the matrix at the round's start (pairs
    with a[p, q] == 0 are skipped), then one column, row and V update each.
    Raises JacobiConvergenceError if MAX_SWEEPS sweeps leave ``off`` above ``off_tol``.
    """
    sweeps = 0
    rounds = None
    # "not <=" so that a NaN norm counts as unconverged
    while not off <= off_tol:
        if sweeps == MAX_SWEEPS:
            raise JacobiConvergenceError(
                f"no convergence after {MAX_SWEEPS} sweeps (n={a.shape[0]}, "
                f"off-diagonal norm {off:.3e}, target {off_tol:.3e})"
            )
        if rounds is None:
            rounds = round_robin(a.shape[0])
        for p, q in zip(*rounds):
            apq = a[p, q]
            keep = apq != 0.0
            p, q, apq = p[keep], q[keep], apq[keep]
            theta = 0.5 * (a[q, q] - a[p, p]) / apq
            big = np.abs(theta) > _THETA_OVERFLOW
            th = np.where(big, 0.0, theta)
            # the textbook root, bitwise; theta >= 0.0 (-0.0 included) takes the positive one
            t = np.where(th >= 0.0, 1.0, -1.0) / (np.abs(th) + np.sqrt(th * th + 1.0))
            t[big] = 0.5 / theta[big]
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            ap, aq = a[:, p], a[:, q]
            a[:, p] = c * ap - s * aq
            a[:, q] = s * ap + c * aq
            ap, aq, cr, sr = a[p], a[q], c[:, None], s[:, None]
            a[p] = cr * ap - sr * aq
            a[q] = sr * ap + cr * aq
            a[p, q] = a[q, p] = 0.0
            vp, vq = v[:, p], v[:, q]
            v[:, p] = c * vp - s * vq
            v[:, q] = s * vp + c * vq
        sweeps += 1
        off = _off_norms(a[None])[0]
    return sweeps
