"""Hot numeric kernels: all-pairs BFS and cyclic Jacobi rotation sweeps.

``_levels`` is a bit-parallel BFS that runs all n searches at once (after
Akiba, Iwata & Yoshida, SIGMOD 2013): each node's reach set is a row of
ceil(n/64) uint64 words, and one level ORs into every row its neighbours'
rows, O(m * n/64) word operations and no BLAS. ``bfs_all_pairs`` runs it to
the end for the distance matrix; ``power_pairs`` stops it after ell levels,
when row u is u's closed ell-neighbourhood, and reads G^ell's edges from the
rows, with no distance matrix. Neither depends on the BLAS build or threads.
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
# per byte value: its set-bit count, and its set bits ascending as a run of _BIT_POSITIONS
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
_POPCOUNT = _BYTE_BITS.sum(axis=1, dtype=np.int64)
_BIT_START = np.cumsum(_POPCOUNT) - _POPCOUNT
_BIT_POSITIONS = np.nonzero(_BYTE_BITS)[1]

#: Convergence: off-diagonal Frobenius norm <= this factor times ||A||_F.
OFF_DIAG_REL_TOL = 1e-12
#: Hard cap on full cyclic sweeps before giving up.
MAX_SWEEPS = 100


class JacobiConvergenceError(RuntimeError):
    """The sweep cap was reached before the off-diagonal mass vanished."""


def _levels(indptr, indices, n):
    """The BFS level loop: yields (rows, new), changed in place, from level 0 (each node alone) on.

    Row i of ``rows`` holds the nodes within ``level`` of node i (node j is bit
    j % 64 of word j // 64), ``new`` the level's added bits. It returns at the first
    level that adds none, after diameter + 1 levels (of the largest component),
    each O((m + n) * n/64) word operations. ``reduceat`` returns the element itself
    for an empty segment, so an isolated node's one neighbour is row n of
    ``reach``, which stays zero. Memory: n * n/8 bytes each for ``rows`` and ``new``.
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
    yield rows, rows
    while True:
        for a, b, run_nbrs, starts in runs:
            buf = gathered[: run_nbrs.size]
            reach.take(run_nbrs, axis=0, out=buf)
            np.bitwise_or.reduceat(buf, starts, axis=0, out=new[a:b])
        new &= ~rows
        if not new.any():
            return
        rows |= new
        yield rows, new


def bfs_all_pairs(indptr, indices, n):
    """All-pairs BFS distances from CSR lists: the full ``_levels`` search, n searches at once.

    Level k's new bits are the nodes at distance k; bit b of k goes into bit
    plane b (n * n/8 bytes each), so the n x n matrix is unpacked once per plane
    rather than once per level. Returns an (n, n) matrix in the narrowest signed
    type that holds the diameter (int8 up to 127, int16 up to 32767, ...), with 0
    on the diagonal and -1 where no path exists.
    """
    planes = []
    for level, (rows, new) in enumerate(_levels(indptr, indices, n)):
        if level.bit_length() > len(planes):
            planes.append(np.zeros(rows.shape, dtype=np.uint64))
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


def power_pairs(indptr, indices, n, ell):
    """G^ell's edges as lexicographic endpoint arrays (us, vs), u < v, from ``_levels``.

    After ell levels (or the last) row u is u's closed ell-neighbourhood. Cut to
    the bits above u, its nonzero bytes (words read little-endian) expand through
    256-entry popcount and bit-position tables: O(n * n/8 + e(G^ell)), no n x n array.
    """
    for level, (rows, _) in enumerate(_levels(indptr, indices, n)):
        if level == ell:
            break
    nodes = np.arange(n)
    # ~1 << (u % 64) clears bits 0..u % 64 of u's own word, bit 63 included
    rows[nodes, nodes // 64] &= np.left_shift(~np.uint64(1), (nodes % 64).astype(np.uint64))
    rows[np.arange(rows.shape[1]) < (nodes // 64)[:, None]] = 0
    flat = rows.astype("<u8", copy=False).view(np.uint8).ravel()
    at = np.flatnonzero(flat != 0)  # numpy finds the nonzeros of a bool mask faster than of bytes
    byte = flat[at]
    counts = _POPCOUNT[byte]
    # pair k is set bit (k - the byte's first pair) of its byte, in the byte's run of _BIT_POSITIONS
    shift = np.repeat(_BIT_START[byte] - np.cumsum(counts) + counts, counts)
    shift += np.arange(shift.size)
    us, vs = np.divmod(np.repeat(at, counts), rows.shape[1] * 8)
    vs *= 8
    vs += _BIT_POSITIONS[shift]
    return us, vs


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
