"""Dense symmetric eigensolver and spectral queries on graph Laplacians.

One core, ``eigen_decompose_stack``, solves a (B, n, n) stack of symmetric
matrices: one symmetry test, one LAPACK ``eigh`` call and one
``_kernels.jacobi_sweeps`` call for the Rayleigh quotients diag(Q^T A Q),
whose stopping rule is a guard that raises ``JacobiConvergenceError``. Each
member gets its own ``SpectralSummary`` of eigenpairs only, bitwise the one it
gets when solved alone; ``eigen_decompose`` is the core on a stack of one.
The residual and orthogonality of a decomposition are the tests' to audit,
from (w, Q) and their own arithmetic.
``prove_psd_stack`` is the proof that comes before it for integer matrices
with zero row sums, such as the g1 and g2 certificate matrices: one batched
floating-point Cholesky, whose success proves the member PSD outright, so
only the members it cannot prove are eigensolved. The module keeps no state
between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import JacobiConvergenceError  # re-exported: the solver's one failure
from .graphs import Graph

#: PSD verdicts use tolerance PSD_REL_TOL * max(1, ||A||_inf).
PSD_REL_TOL = 1e-8

PSD = "PSD"
NOT_PSD = "NOT_PSD"

#: Unit roundoff of IEEE double precision, and the factor that rounds the Cholesky shift up.
_UNIT_ROUNDOFF = 2.0**-53
_ROUND_UP = 1.0 + 2.0**-39


@dataclass(frozen=True)
class SpectralSummary:
    """Full eigendecomposition of a symmetric matrix: its eigenpairs, nothing derived from them.

    ``vectors[:, i]`` is the unit eigenvector paired with ``eigenvalues[i]``;
    eigenvalues are sorted ascending.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class CertificateResult:
    """Positive-semi-definiteness verdict with the tolerance of the eigensolver's verdict rule.

    ``method`` says how the verdict was reached. "eigen": the minimum eigenvalue
    of a full decomposition against ``tolerance`` (``is_psd``).
    "cholesky": ``prove_psd_stack`` proved the matrix PSD with its null space
    exactly the constant vectors, so ``min_eigenvalue`` is exactly 0.0 and the
    verdict is PSD by proof; ``tolerance`` is still the one an eigensolve would use.
    """

    min_eigenvalue: float
    tolerance: float
    verdict: str  # PSD | NOT_PSD
    method: str = "eigen"  # eigen | cholesky


def laplacian(g: Graph) -> np.ndarray:
    """Degree-diagonal minus adjacency; exactly symmetric, rows sum to zero."""
    return adjacency_laplacian(g.adjacency_matrix())


def adjacency_laplacian(adj: np.ndarray) -> np.ndarray:
    """The Laplacian of a dense symmetric boolean adjacency matrix: its negation, row counts on the diagonal.

    A (k, n, n) stack of adjacencies gives the stack of their Laplacians, each
    bitwise its lone one, -0.0 off the edges included.
    """
    lap = -adj.astype(np.float64)
    diagonal = np.arange(adj.shape[-1])
    lap[..., diagonal, diagonal] = adj.sum(axis=-1)
    return lap


def eigen_decompose(a: np.ndarray) -> SpectralSummary:
    """Full symmetric eigendecomposition of one matrix: the stacked core on a stack of one.

    Raises ValueError for an input that is not a square matrix; every other
    step, check and error is ``eigen_decompose_stack``'s. The input stays 2-D
    at this boundary, so a per-call wrapper sees one n x n matrix.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return eigen_decompose_stack(a[None])[0]


def eigen_decompose_stack(stack: np.ndarray) -> list[SpectralSummary]:
    """Full symmetric eigendecomposition of each member of a (B, n, n) stack.

    One ``eigh`` call for a basis Q, then one ``_kernels.jacobi_sweeps`` call
    for the ascending Rayleigh quotients diag(Q^T A Q), whose last bits two
    golden reports print, with their columns of Q. Every step treats the
    members independently, so each ``SpectralSummary`` is bitwise the one a
    stack of that member alone gives; its arrays are read-only views into
    arrays of the whole stack; an empty stack gives []. Raises ValueError if
    the input is not a stack of square matrices or a member is not finite or
    not exactly symmetric, and JacobiConvergenceError if Q fails the kernel's
    stopping rule.
    """
    a = np.asarray(stack, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    if not len(a):
        return []
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry (inf or NaN)")
    if not (a == a.transpose(0, 2, 1)).all():
        raise ValueError("matrix is not exactly symmetric")
    _, eigenvalues, vectors = _kernels.jacobi_sweeps(a, np.linalg.eigh(a)[1])
    eigenvalues.flags.writeable = False
    vectors.flags.writeable = False
    return [SpectralSummary(w, q) for w, q in zip(eigenvalues, vectors)]


def lambda2(g: Graph) -> float:
    """Algebraic connectivity: second smallest Laplacian eigenvalue."""
    if g.n < 2:
        raise ValueError("algebraic connectivity undefined for fewer than 2 nodes")
    summary = eigen_decompose(laplacian(g))
    return float(summary.eigenvalues[1])


def psd_tolerance(a: np.ndarray) -> float | list[float]:
    """Default PSD tolerance PSD_REL_TOL * max(1, ||A||_inf); for a stack, a list of each member's.

    ||A||_inf is the largest absolute row sum, 0 for an empty matrix.
    """
    return (PSD_REL_TOL * np.maximum(1.0, np.abs(a).sum(axis=-1).max(axis=-1, initial=0.0))).tolist()


def prove_psd_stack(stack: np.ndarray) -> np.ndarray:
    """Which members of a (B, n, n) stack a verified Cholesky proves PSD, as a (B,) bool array.

    A member qualifies when it is exactly symmetric, every entry is an integer
    and n * max|a_ij| <= 2^53 (so the matrix, its row sums and its trace are
    exact in double precision), and every row sums to zero. Any other member,
    and every member when n < 2, is declined (False). True is a proof that the
    member M is positive semi-definite with null space exactly the constant
    vectors; False proves nothing either way.

    Grounding: M 1 = 0 gives x^T M x = y^T A y for y = x - x_n 1 without its
    last entry, where A is M without its last row and column. So M >= 0 if
    A >= 0, and A > 0 leaves M only the null vector 1, so lambda_min(M) = 0.

    The proof that A > 0 (order k = n - 1) is S. M. Rump's, "Verification of
    positive definiteness", BIT 46 (2006). Take the shift
    c >= g/(1 - g) tr(A) + u max_i a_ii + 4k(2(k + 2) + max_i a_ii) eta,
    with u = 2^-53, eta = 2^-1074 and g = gamma_{k+2} = (k + 2)u/(1 - (k + 2)u);
    max_i a_ii <= 2^53 bounds the last term by k 2^-1018. Let
    B = fl(A - cI), so B = A - cI - E with E diagonal. If floating-point
    Cholesky of B runs to completion, then b_ii > 0 (each pivot is b_ii less
    a sum of squares), so a_ii > c >= 0, tr(B) <= tr(A) and |E_ii| <= u a_ii.
    Higham's backward error bound (*Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., Thm 10.3; its proof needs only that the
    factorisation completes, and holds for any order of evaluation, so for
    LAPACK's blocked Cholesky too) gives R^T R = B + D with
    |D| <= gamma_{k+1} |R^T||R|. gamma_{k+2} also covers a LAPACK that scales
    a column by a rounded reciprocal of its pivot instead of dividing, and
    the last term of c the absolute error gradual underflow adds to each
    product and quotient. Since ||R||_F^2 = tr(B + D) <= tr(B) + g ||R||_F^2,
    ||D||_2 <= g ||R||_F^2 <= g tr(B)/(1 - g), and B + D = R^T R >= 0 gives
    lambda_min(A) >= c - g tr(B)/(1 - g) - max|E_ii| - (underflow) > 0. c is
    computed in a few roundings of relative size u, with both coefficients
    raised by a relative 2^-39, far more than those roundings can lose.

    All qualifying members go to one batched ``np.linalg.cholesky`` call. It
    raises for the whole stack if any member fails, and then the stack is
    halved until each failing member stands alone (``_cholesky_completes``).
    A tight or singular member (a tight bound) fails and is left to the
    eigensolver, as is any member whose smallest eigenvalue is within about
    n * u * tr(A) of 0.
    """
    a = np.asarray(stack, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    count, n = a.shape[:2]
    if n < 2 or not count:
        return np.zeros(count, dtype=bool)
    # rint(A) == A^T holds exactly when A is integer-valued and symmetric; "<=" so
    # that a NaN or inf entry declines its member
    fits = (np.rint(a) == a.transpose(0, 2, 1)).all(axis=(1, 2))
    fits &= np.abs(a).max(axis=(1, 2)) * n <= 2.0**53
    fits &= (a.sum(axis=2) == 0.0).all(axis=1)
    if not fits.all():
        proved = np.zeros(count, dtype=bool)
        proved[fits] = prove_psd_stack(a[fits])
        return proved
    k = n - 1
    grounded = a[:, :k, :k].copy()
    diagonal = grounded.reshape(count, -1)[:, :: k + 1]  # a view: the copy is contiguous
    # clamped so that c >= 0; a member with a negative diagonal entry fails anyway
    trace = np.maximum(diagonal.sum(axis=1), 0.0)
    top = np.maximum(diagonal.max(axis=1), 0.0)
    g = (k + 2) * _UNIT_ROUNDOFF / (1.0 - (k + 2) * _UNIT_ROUNDOFF)
    shift = _ROUND_UP * g / (1.0 - g) * trace + _ROUND_UP * _UNIT_ROUNDOFF * top + k * 2.0**-1018
    diagonal -= shift[:, None]  # B = fl(A - cI)
    return _cholesky_completes(grounded)


def _cholesky_completes(stack: np.ndarray) -> np.ndarray:
    """Whether floating-point Cholesky of each member of a (B, k, k) stack runs to completion.

    One batched call decides the whole stack when every member completes; it
    raises if any fails, and then each half is decided the same way. So f
    failing members cost O(f log B) batched calls, not B single ones.
    """
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        if len(stack) == 1:
            return np.zeros(1, dtype=bool)
        half = len(stack) // 2
        return np.concatenate((_cholesky_completes(stack[:half]), _cholesky_completes(stack[half:])))
    return np.ones(len(stack), dtype=bool)


def is_psd(a: np.ndarray) -> CertificateResult:
    """Certify positive semi-definiteness: the minimum eigenvalue is at least -psd_tolerance(a).

    The one verdict rule of the eigensolver; the result records the tolerance.
    """
    tol = psd_tolerance(a)
    min_eigenvalue = float(eigen_decompose(a).eigenvalues[0])
    return CertificateResult(min_eigenvalue, tol, PSD if min_eigenvalue >= -tol else NOT_PSD)
