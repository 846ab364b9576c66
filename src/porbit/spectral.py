"""Eigenvalue and subspace computations for the equilibrium analysis.

Kernels and subspace comparisons run through the SVD; oscillation
frequencies come from the eigenvalues of the exact Jacobian. Matrices here
are small (n <= ~20) and densely evaluated, so plain LAPACK calls are used
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DependentConstraints, EigenSolveError

KERNEL_TOL = 1e-10
DEFINITE_TOL = 1e-10
IMAGINARY_TOL = 1e-8
ANGLE_TOL = 1e-8


@dataclass(frozen=True)
class EigenData:
    """Eigenvalues of a real matrix plus the tolerance used to classify them."""

    eigenvalues: np.ndarray
    zero_tolerance: float = IMAGINARY_TOL


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of R^n; ``vectors`` is n x d."""

    ambient_dim: int
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def eigen(matrix, zero_tolerance: float = IMAGINARY_TOL) -> EigenData:
    """All eigenvalues of a square real matrix."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eigen needs a square matrix")
    try:
        values = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"eigenvalue iteration failed: {exc}") from exc
    return EigenData(values, zero_tolerance)


def _rank_and_vh(a: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    """Numerical rank and right singular vectors (as rows) from one full SVD.

    Singular values at or above ``tol`` times the largest count toward the
    rank; a zero matrix has rank 0.
    """
    _, s, vh = np.linalg.svd(a)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s >= tol * smax)) if smax > 0.0 else 0
    return rank, vh


def kernel(matrix, tol: float = KERNEL_TOL) -> SubspaceBasis:
    """Orthonormal basis of the numerical null space.

    Right singular vectors whose singular values fall below ``tol`` times the
    largest singular value span the kernel; a zero matrix yields the full
    space.
    """
    if tol <= 0:
        raise ValueError("kernel tolerance must be positive")
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    n = a.shape[1]
    rank, vh = _rank_and_vh(a, tol)
    if rank == 0:
        return SubspaceBasis(n, np.eye(n))
    return SubspaceBasis(n, vh[rank:].T.copy())


def row_space(matrix, tol: float = KERNEL_TOL) -> SubspaceBasis:
    """Orthonormal basis of the span of the rows."""
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    return gradient_split(a, a.shape[1], tol)[0]


def largest_principal_angle(a: SubspaceBasis, b: SubspaceBasis) -> float:
    """Largest principal angle between two subspaces of equal dimension.

    Computed from the sines sigma((I - A A^T) B), which stays accurate for
    tiny angles where the cosine formula loses all precision.
    """
    if a.dim == 0 and b.dim == 0:
        return 0.0
    residual = b.vectors - a.vectors @ (a.vectors.T @ b.vectors)
    sines = np.linalg.svd(residual, compute_uv=False)
    smax = float(np.max(sines)) if sines.size else 0.0
    return float(np.arcsin(np.clip(smax, -1.0, 1.0)))


def subspace_equal(a: SubspaceBasis, b: SubspaceBasis, tol: float = ANGLE_TOL) -> bool:
    """True when both spans coincide within angle ``tol`` (radians)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    if a.dim != b.dim:
        return False
    return largest_principal_angle(a, b) < tol


def imaginary_pairs(eig: EigenData, tol: float | None = None) -> list[float]:
    """Frequencies of purely imaginary conjugate pairs, sorted descending.

    One omega per pair with |Re| < tol and |Im| >= tol; numerically
    coincident frequencies are merged (resonances are reported as a single
    family, not resolved).
    """
    if tol is None:
        tol = eig.zero_tolerance
    omegas = sorted(
        (
            float(v.imag)
            for v in eig.eigenvalues
            if abs(v.real) < tol and v.imag >= tol
        ),
        reverse=True,
    )
    out: list[float] = []
    for w in omegas:
        if not out or out[-1] - w > tol:
            out.append(w)
    return out


def gradient_split(constraint_grads, n: int, tol: float = KERNEL_TOL):
    """Span of the gradients and their joint kernel in R^n, from one SVD.

    Returns two :class:`SubspaceBasis` objects; with no gradients the span
    is empty and the kernel is the whole space.
    """
    if len(constraint_grads) == 0:
        return SubspaceBasis(n, np.zeros((n, 0))), SubspaceBasis(n, np.eye(n))
    rank, vh = _rank_and_vh(np.vstack(constraint_grads), tol)
    return SubspaceBasis(n, vh[:rank].T.copy()), SubspaceBasis(n, vh[rank:].T.copy())


def restrict(hess, kernel_basis: SubspaceBasis) -> np.ndarray:
    """B^T H B for the orthonormal basis B, symmetrized to the bit."""
    b = kernel_basis.vectors
    r = b.T @ np.asarray(hess, dtype=float) @ b
    return 0.5 * (r + r.T)


def restricted_hessian(hess, constraint_grads, tol: float = KERNEL_TOL) -> np.ndarray:
    """The quadratic form restricted to the joint kernel of the gradients.

    Builds an orthonormal basis B of the intersection of the gradient
    kernels and returns B^T H B, symmetrized. Raises
    :class:`DependentConstraints` when the stacked gradients are rank
    deficient, which signals the base point is not a regular value.
    """
    h = np.asarray(hess, dtype=float)
    grads = [np.asarray(g, dtype=float) for g in constraint_grads]
    span, joint_kernel = gradient_split(grads, h.shape[0], tol)
    if span.dim < len(grads):
        raise DependentConstraints("constraint gradients dependent")
    return restrict(h, joint_kernel)


def is_positive_definite(matrix, tol: float = DEFINITE_TOL) -> bool:
    """Smallest eigenvalue above ``tol``; the empty matrix counts as definite."""
    a = np.asarray(matrix, dtype=float)
    if a.size == 0:
        return True
    values = np.linalg.eigvalsh(0.5 * (a + a.T))
    return bool(values[0] > tol)


def oscillation_plane(matrix, omega: float, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Real plane invariant under the matrix for the pair +/- i omega.

    Returns (u, v) = (Re w, Im w) for the eigenvector w of +i omega, so that
    A [u v] = [u v] [[0, omega], [-omega, 0]]. The phase of w is canonical:
    its first component whose modulus is within a relative 1e-6 of the
    largest is real and positive, so round-off in the matrix cannot rotate
    the plane's basis (LAPACK returns an arbitrary phase).
    """
    a = np.asarray(matrix, dtype=float)
    values, vectors = np.linalg.eig(a)
    idx = int(np.argmin(np.abs(values - 1j * omega)))
    if abs(values[idx] - 1j * omega) > tol * max(1.0, abs(omega)):
        raise EigenSolveError(
            f"no eigenvalue within {tol} of i*{omega}; closest is {values[idx]}"
        )
    w = vectors[:, idx]
    moduli = np.abs(w)
    lead = int(np.argmax(moduli >= (1.0 - 1e-6) * moduli.max()))
    w = w * (np.conj(w[lead]) / moduli[lead])
    u = np.real(w).copy()
    v = np.imag(w).copy()
    if np.linalg.norm(u) < tol or np.linalg.norm(v) < tol:
        raise EigenSolveError("oscillation plane is degenerate")
    return u, v
