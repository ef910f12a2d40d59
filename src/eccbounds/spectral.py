"""Dense symmetric eigensolver and spectral queries on graph Laplacians.

The eigensolver is preconditioned Jacobi: LAPACK's ``eigh`` supplies a basis
in which the matrix is diagonal up to roundoff, and cyclic Jacobi sweeps in
round-robin order (n - 1 vectorised rounds of n // 2 disjoint rotations,
O(n^2) work a round) finish from there when needed: the stopping rule is
tested before the first sweep, and the ``eigh`` start normally meets it
already, so a solve runs 0 sweeps. Each decomposition reports its own
residual and eigenvector-orthogonality error in its ``SpectralSummary``; the
module keeps no state between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .graphs import Graph

#: Convergence: off-diagonal Frobenius norm <= this factor times ||A||_F.
OFF_DIAG_REL_TOL = 1e-12
#: Hard cap on full cyclic sweeps before giving up.
MAX_SWEEPS = 100
#: PSD verdicts use tolerance PSD_REL_TOL * max(1, ||A||_inf).
PSD_REL_TOL = 1e-8

PSD = "PSD"
NOT_PSD = "NOT_PSD"


class JacobiConvergenceError(RuntimeError):
    """The sweep cap was reached before the off-diagonal mass vanished."""


@dataclass(frozen=True)
class SpectralSummary:
    """Full eigendecomposition of a symmetric matrix.

    ``vectors[:, i]`` is the unit eigenvector paired with ``eigenvalues[i]``;
    eigenvalues are sorted ascending. ``residual`` is the elementwise max of
    |A q - w q| over all pairs; ``orthogonality_error`` the elementwise max of
    |Q^T Q - I|. ``sweeps`` counts the Jacobi sweeps run from the ``eigh``
    start; it is normally 0.
    """

    eigenvalues: np.ndarray
    residual: float
    orthogonality_error: float
    vectors: np.ndarray
    sweeps: int


@dataclass(frozen=True)
class CertificateResult:
    """Positive-semi-definiteness verdict with the tolerance actually used."""

    min_eigenvalue: float
    tolerance: float
    verdict: str  # PSD | NOT_PSD


def inf_norm(a: np.ndarray) -> float:
    """Matrix infinity norm (max absolute row sum)."""
    if a.size == 0:
        return 0.0
    return float(np.abs(a).sum(axis=1).max())


def laplacian(g: Graph) -> np.ndarray:
    """Degree-diagonal minus adjacency; exactly symmetric, rows sum to zero."""
    lap = -g.adjacency_matrix().astype(np.float64)
    np.fill_diagonal(lap, g.degrees().astype(np.float64))
    return lap


def eigen_decompose(a: np.ndarray) -> SpectralSummary:
    """Full symmetric eigendecomposition: an ``eigh`` basis polished by Jacobi sweeps.

    With Q from ``np.linalg.eigh(a)``, B = Q^T A Q is diagonal up to roundoff;
    round-robin Jacobi sweeps on B, rotating Q along, run until its
    off-diagonal norm is under OFF_DIAG_REL_TOL * ||A||_F (n - 1 vectorised
    rounds of disjoint rotations a sweep, O(n^2) work each). B normally meets
    that rule already, so normally 0 sweeps run and the cost is one ``eigh``,
    two matrix products and the O(n^2) norm test. The eigenvalues are the
    sorted diagonal and the eigenvectors the (rotated) Q, checked against
    ``a`` itself. Raises JacobiConvergenceError if the sweep cap is hit, and
    ValueError for a non-square or non-symmetric input.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not exactly symmetric")
    n = a.shape[0]
    _, basis = np.linalg.eigh(a)
    work = basis.T @ a @ basis
    work = 0.5 * (work + work.T)  # exactly symmetric: x + y == y + x in floating point
    vectors = np.ascontiguousarray(basis)
    off_tol = OFF_DIAG_REL_TOL * float(np.linalg.norm(a, "fro"))
    sweeps, converged = _kernels.jacobi_sweeps(work, vectors, off_tol, MAX_SWEEPS)
    if not converged:
        off = float(np.sqrt(2.0 * np.sum(np.triu(work, 1) ** 2)))
        raise JacobiConvergenceError(
            f"no convergence after {MAX_SWEEPS} sweeps (n={n}, "
            f"off-diagonal norm {off:.3e}, target {off_tol:.3e})"
        )
    order = np.argsort(np.diagonal(work), kind="stable")
    eigenvalues = np.diagonal(work)[order].copy()
    vectors = vectors[:, order]
    residual = float(np.abs(a @ vectors - vectors * eigenvalues).max()) if n else 0.0
    orthogonality_error = float(np.abs(vectors.T @ vectors - np.eye(n)).max()) if n else 0.0
    eigenvalues.flags.writeable = False
    vectors.flags.writeable = False
    return SpectralSummary(
        eigenvalues=eigenvalues,
        residual=residual,
        orthogonality_error=orthogonality_error,
        vectors=vectors,
        sweeps=sweeps,
    )


def lambda2(g: Graph) -> float:
    """Algebraic connectivity: second smallest Laplacian eigenvalue."""
    if g.n < 2:
        raise ValueError("algebraic connectivity undefined for fewer than 2 nodes")
    summary = eigen_decompose(laplacian(g))
    return float(summary.eigenvalues[1])


def psd_tolerance(a: np.ndarray) -> float:
    """Default PSD tolerance, scaled to the matrix magnitude."""
    return PSD_REL_TOL * max(1.0, inf_norm(a))


def is_psd(a: np.ndarray) -> CertificateResult:
    """Certify positive semi-definiteness via the minimum eigenvalue.

    The tolerance is ``psd_tolerance(a)``; the result records it.
    """
    tol = psd_tolerance(a)
    summary = eigen_decompose(a)
    min_eigenvalue = float(summary.eigenvalues[0])
    verdict = PSD if min_eigenvalue >= -tol else NOT_PSD
    return CertificateResult(min_eigenvalue=min_eigenvalue, tolerance=tol, verdict=verdict)
