"""Hot numeric kernels: all-pairs BFS and the Rayleigh quotients of an eigenbasis.

``_levels`` is a bit-parallel BFS that runs all n searches of a graph at once
(after Akiba, Iwata & Yoshida, SIGMOD 2013): each node's reach set is a row of
ceil(n/64) uint64 words, and one level ORs into every row its neighbours'
rows, O(m * n/64) word operations and no BLAS. It searches B graphs of one
order n together, as multi-source BFS shares one traversal among searches
(Then et al., VLDB 2014): they come packed as one CSR of B * n rows, member
b's node i being row b * n + i with bit i of its row, so no edge leaves a
member's block of rows and neither does reach. One graph is the batch of
one. ``bfs_all_pairs`` runs it to the end for the (B, n, n) distance stack;
``power_pairs`` stops it after ell levels, when row u is u's closed
ell-neighbourhood, and reads G^ell's edges from the rows, a bounded block at
a time, with no distance matrix. Neither depends on the BLAS build or threads.
``jacobi_sweeps`` is the Rayleigh half of the eigensolver: given a (B, n, n)
stack and LAPACK ``eigh``'s basis Q, it forms W = Q^T A Q, tests the stopping
rule (OFF_DIAG_REL_TOL) for every member in one pass, raises
JacobiConvergenceError if any member fails it, and returns the Rayleigh
quotients diag(W), ascending, with their columns of Q; two golden reports
print the quotients' last bits, which ``eigh``'s eigenvalues do not match.
The rule is a guard, not a loop: after ``eigh`` the off-diagonal norm is
0.16% of the target on the hypercube Q10 (n = 1,024), 0.36% on the 40 x 50
grid (n = 2,000), at most 0.3% on ER graphs of n = 12 to 1,000, so no
Jacobi sweep (Drmac & Veselic, SIMAX 2008) ever ran after it; none is kept.
"""

from __future__ import annotations

import numpy as np

_GATHER_WORDS = 1 << 20  # cap on the neighbour rows gathered at once (8 MB)
_PAIR_BLOCK = 1 << 20  # cap on the pairs power_pairs expands at once, unless one row may hold more
# per byte value: its set-bit count, and its set bits ascending as a run of _BIT_POSITIONS
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
_POPCOUNT = _BYTE_BITS.sum(axis=1, dtype=np.int64)
_BIT_START = np.cumsum(_POPCOUNT) - _POPCOUNT
_BIT_POSITIONS = np.nonzero(_BYTE_BITS)[1]
for _table in (_BYTE_BITS, _POPCOUNT, _BIT_START, _BIT_POSITIONS):
    _table.flags.writeable = False  # every power_pairs call in the process shares them
del _table

#: Convergence: off-diagonal Frobenius norm <= this factor times ||A||_F.
OFF_DIAG_REL_TOL = 1e-12


class JacobiConvergenceError(RuntimeError):
    """``eigh``'s basis failed the stopping rule: W = Q^T A Q is off diagonal by more than OFF_DIAG_REL_TOL * ||A||_F."""


def _levels(indptr, indices, n):
    """The BFS level loop: yields (rows, new), changed in place, from level 0 (each node alone) on.

    ``indptr`` and ``indices`` are the CSR lists of B graphs of order n packed
    as one (B * n rows; member b's node i is row b * n + i). Row r of ``rows``
    holds, as bit i of its ceil(n/64) words, the nodes i of r's member within
    ``level`` of r, and ``new`` the level's added bits. It returns at the first
    level that adds none, after diameter + 1 levels (of the largest component
    of any member), each O((m + B * n) * n/64) word operations. ``reduceat``
    returns the element itself for an empty segment, so an isolated node's one
    neighbour is row B * n of ``reach``, which stays zero. Memory: B * n * n/8
    bytes each for ``rows`` and ``new``.
    """
    words = (n + 63) // 64
    total = indptr.size - 1
    nodes = np.arange(total)
    bits = nodes % n
    reach = np.zeros((total + 1, words), dtype=np.uint64)
    reach[nodes, bits // 64] = np.left_shift(np.uint64(1), (bits % 64).astype(np.uint64))
    deg = np.diff(indptr)
    seg = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.maximum(deg, 1), out=seg[1:])
    nbrs = np.full(seg[-1], total, dtype=np.int64)
    edge_row = np.repeat(nodes, deg)
    nbrs[seg[edge_row] + np.arange(indices.size) - indptr[edge_row]] = indices
    # runs of rows whose neighbour lists fit the gather buffer
    cuts = _cuts(seg, max(1, _GATHER_WORDS // words))
    runs = [(a, b, nbrs[seg[a]:seg[b]], seg[a:b] - seg[a]) for a, b in zip(cuts[:-1], cuts[1:])]
    gathered = np.empty((max(r[2].size for r in runs), words), dtype=np.uint64)
    rows = reach[:total]
    new = np.empty((total, words), dtype=np.uint64)
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
    """All-pairs BFS distances of B packed graphs of order n: the full ``_levels`` search, B * n searches at once.

    Level k's new bits are the nodes at distance k; bit b of k goes into bit
    plane b (B * n * n/8 bytes each), so the distances are unpacked once per
    plane rather than once per level. Returns a (B, n, n) stack in the
    narrowest signed type that holds the largest distance of any member (int8
    up to 127, int16 up to 32767, ...), with 0 on each diagonal and -1 where
    no path exists.
    """
    planes = []
    for level, (rows, new) in enumerate(_levels(indptr, indices, n)):
        if level.bit_length() > len(planes):
            planes.append(np.zeros(rows.shape, dtype=np.uint64))
        for b, plane in enumerate(planes):
            if level >> b & 1:
                plane |= new
    # assemble in the narrowest signed type that holds the planes, in place:
    # each fresh array costs page faults, and numpy's int8 shift is slow
    small = np.min_scalar_type(-(1 << len(planes)))
    dist = _unpack(rows, n, small)
    dist -= 1  # -1 where unreached; reached pairs start at 0
    for b, plane in enumerate(planes):
        bit = _unpack(plane, n, small)
        if b:
            bit *= 1 << b
        dist |= bit
    return dist.reshape(-1, n, n)


def _cuts(offsets, cap):
    """Cut points 0 = c_0 < c_1 < ... = n of runs of items, item i spanning offsets[i]..offsets[i + 1].

    Each run spans at most ``cap``, except an item that alone spans more: it is a run of its own.
    """
    cuts = [0]
    while cuts[-1] < offsets.size - 1:
        a = cuts[-1]
        cuts.append(max(a + 1, int(np.searchsorted(offsets, offsets[a] + cap, "right")) - 1))
    return cuts


def power_pairs(indptr, indices, n, ell):
    """G^ell's edges u < v, from ``_levels``, as an iterator of lexicographic blocks (us, vs).

    The search runs on the call: after ell levels (or the last) row u is u's
    closed ell-neighbourhood, and it is cut to the bits above u. The blocks are
    runs of whole rows that may hold at most _PAIR_BLOCK pairs, row u at most
    n - 1 - u (a row that may hold more is a block alone), each expanded when
    it is taken: its nonzero bytes (words read little-endian) go through
    256-entry popcount and bit-position tables. O(n * n/8 + e(G^ell)) in all,
    no n x n array, one block's pairs at a time.
    """
    for level, (rows, _) in enumerate(_levels(indptr, indices, n)):
        if level == ell:
            break
    nodes = np.arange(n)
    # ~1 << (u % 64) clears bits 0..u % 64 of u's own word, bit 63 included
    rows[nodes, nodes // 64] &= np.left_shift(~np.uint64(1), (nodes % 64).astype(np.uint64))
    rows[np.arange(rows.shape[1]) < (nodes // 64)[:, None]] = 0
    row_bytes = rows.astype("<u8", copy=False).view(np.uint8)
    # rows 0..u - 1 hold at most (n - 1) + ... + (n - u) pairs
    cuts = _cuts(np.arange(n + 1) * (2 * n - 1 - np.arange(n + 1)) // 2, _PAIR_BLOCK)
    return (_row_pairs(row_bytes[a:b], a) for a, b in zip(cuts[:-1], cuts[1:]))


def _row_pairs(row_bytes, first):
    """The set bits of (rows, 8 * words) little-endian bitset bytes as pairs (first + row, bit)."""
    flat = row_bytes.ravel()
    at = np.flatnonzero(flat != 0)  # numpy finds the nonzeros of a bool mask faster than of bytes
    byte = flat[at]
    counts = _POPCOUNT[byte]
    # pair k is set bit (k - the byte's first pair) of its byte, in the byte's run of _BIT_POSITIONS
    shift = np.repeat(_BIT_START[byte] - np.cumsum(counts) + counts, counts)
    shift += np.arange(shift.size)
    us, vs = np.divmod(np.repeat(at, counts), row_bytes.shape[1])
    us += first
    vs *= 8
    vs += _BIT_POSITIONS[shift]
    return us, vs


def _unpack(bits, n, dtype):
    """(rows, words) little-endian uint64 bitsets -> (rows, n) 0/1 matrix of a signed ``dtype``."""
    as_bytes = bits.astype("<u8", copy=False).view(np.uint8)
    flags = np.unpackbits(as_bytes, axis=1, count=n, bitorder="little")
    return flags.view(dtype) if dtype.itemsize == 1 else flags.astype(dtype)


def jacobi_sweeps(a, basis):
    """Eigenpairs of each member of a symmetric (B, n, n) stack ``a`` from LAPACK ``eigh``'s basis.

    Each member's W = basis^T a basis, symmetrised in place, is tested against
    the stopping rule sqrt(2 * sum(triu(W, 1)**2)) <= OFF_DIAG_REL_TOL * ||a||_F
    (read at call time) in one pass; the first member that fails it raises
    JacobiConvergenceError. The eigenvalues are the Rayleigh quotients, the
    diagonal of W. Returns (sweeps, eigenvalues, vectors): 0, the (B, n)
    eigenvalues ascending and the (B, n, n) eigenvectors, the columns of
    ``basis`` in matching order. Where a diagonal of W is not ascending, one
    fancy index per array permutes the pairs. Neither input is written to.
    """
    work = basis.transpose(0, 2, 1) @ a @ basis
    work += work.transpose(0, 2, 1)  # numpy reads the overlapping transpose as if copied first
    work *= 0.5  # exactly symmetric: x + y == y + x
    off_tol = OFF_DIAG_REL_TOL * np.linalg.norm(a, axis=(1, 2))
    norms = _off_norms(work)
    failed = np.flatnonzero(~(norms <= off_tol))  # "<=" so that a NaN norm fails the rule
    if failed.size:
        i = failed[0]
        raise JacobiConvergenceError(
            f"member {i} misses the stopping rule (n={a.shape[1]}, "
            f"off-diagonal norm {norms[i]:.3e}, target {off_tol[i]:.3e})"
        )
    eigenvalues = np.diagonal(work, axis1=1, axis2=2).copy()
    vectors = basis
    # sorted only where a diagonal is not ascending already: in 494 of the stacks of 512 two-trial
    # ER n = 12 campaigns, in none of 200 ER n = 50 Laplacians (about 10 us of a 1.5 ms analyze)
    if not (eigenvalues[:, 1:] >= eigenvalues[:, :-1]).all():
        pick = np.arange(len(work))[:, None], np.argsort(eigenvalues, axis=1, kind="stable")
        eigenvalues = eigenvalues[pick]
        vectors = vectors.transpose(0, 2, 1)[pick].transpose(0, 2, 1)  # the columns, picked as rows
    # perfbench's tracer reads result[0] as this call's sweep count until the kernel is renamed
    return 0, eigenvalues, vectors


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
