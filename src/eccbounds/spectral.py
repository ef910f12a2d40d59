"""Dense symmetric eigensolver and spectral queries on graph Laplacians.

One core, ``eigen_decompose_stack``, solves a (B, n, n) stack of symmetric
matrices: one symmetry test, one LAPACK ``eigh`` call, one
``_kernels.jacobi_sweeps`` call, which owns the Jacobi polish and returns
ascending eigenpairs, and the residual and orthogonality checks of every
member. Each member gets its own ``SpectralSummary``, bitwise the one it
gets when solved alone; ``eigen_decompose`` is the core on a stack of one.
The module keeps no state between calls.
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


@dataclass(frozen=True)
class SpectralSummary:
    """Full eigendecomposition of a symmetric matrix.

    ``vectors[:, i]`` is the unit eigenvector paired with ``eigenvalues[i]``;
    eigenvalues are sorted ascending. ``residual`` is the elementwise max of
    |A q - w q| over all pairs; ``orthogonality_error`` the elementwise max of
    |Q^T Q - I|.
    """

    eigenvalues: np.ndarray
    residual: float
    orthogonality_error: float
    vectors: np.ndarray


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

    One ``eigh`` call, then one ``_kernels.jacobi_sweeps`` call for the
    ascending eigenpairs, each checked against its member. Every step treats
    the members independently, so each ``SpectralSummary`` is bitwise the one
    a stack of that member alone gives; its arrays are read-only views into
    arrays of the whole stack; an empty stack gives []. Raises ValueError if
    the input is not a stack of square matrices or a member is not finite or
    not exactly symmetric, and the kernel's JacobiConvergenceError.
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
    count, n = a.shape[:2]
    _, eigenvalues, vectors = _kernels.jacobi_sweeps(a, np.linalg.eigh(a)[1])
    # A Q - Q diag(w) and Q^T Q - I side by side, so one abs and one max serve both
    checks = np.empty((2, count, n, n))
    np.matmul(a, vectors, out=checks[0])
    checks[0] -= vectors * eigenvalues[:, None, :]
    np.matmul(vectors.transpose(0, 2, 1), vectors, out=checks[1])
    checks[1].reshape(count, -1)[:, :: n + 1] -= 1.0  # minus I
    worst = np.abs(checks, out=checks).reshape(2, count, -1).max(axis=2, initial=0.0)
    eigenvalues.flags.writeable = False
    vectors.flags.writeable = False
    residual, orthogonality_error = worst.tolist()
    return [
        SpectralSummary(eigenvalues[i], residual[i], orthogonality_error[i], vectors[i]) for i in range(count)
    ]


def lambda2(g: Graph) -> float:
    """Algebraic connectivity: second smallest Laplacian eigenvalue."""
    if g.n < 2:
        raise ValueError("algebraic connectivity undefined for fewer than 2 nodes")
    summary = eigen_decompose(laplacian(g))
    return float(summary.eigenvalues[1])


def psd_tolerance(a: np.ndarray) -> float:
    """Default PSD tolerance, scaled to the matrix magnitude."""
    return PSD_REL_TOL * max(1.0, inf_norm(a))


def psd_certificate(a: np.ndarray, summary: SpectralSummary) -> CertificateResult:
    """The PSD verdict on ``a`` from its decomposition: min eigenvalue >= -psd_tolerance(a).

    The one verdict rule of ``is_psd`` and of the stacked certificates; the
    result records the tolerance.
    """
    tol = psd_tolerance(a)
    min_eigenvalue = float(summary.eigenvalues[0])
    verdict = PSD if min_eigenvalue >= -tol else NOT_PSD
    return CertificateResult(min_eigenvalue=min_eigenvalue, tolerance=tol, verdict=verdict)


def is_psd(a: np.ndarray) -> CertificateResult:
    """Certify positive semi-definiteness via the minimum eigenvalue (``psd_certificate``)."""
    return psd_certificate(a, eigen_decompose(a))
