"""Structured verification of the periodic-orbit existence conditions.

At an equilibrium of a bundle with k constraint invariants and one
distinguished integral, the checker establishes:

  (i)   the zero eigenspace of the linearization has dimension k and equals
        the span of the constraint gradients,
  (ii)  the linearization carries at least one purely imaginary pair
        +/- i omega,
  (iii) the integral is critical at the point and its Hessian restricted to
        the joint kernel of the constraint gradients is positive definite,

plus the regular-value premise (constraint gradients independent). With an
empty constraint list the same routine covers the classical nondegenerate
case: (i) degenerates to an invertible linearization.

Each omega predicts a nearby orbit family with period close to 2 pi / omega;
the expected number of families on the reduced space is (n - k) / 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import gradient_exact, hessian_exact, jacobian_exact
from .errors import DependentConstraints, NotAnEquilibrium
from .spectral import (
    ANGLE_TOL,
    DEFINITE_TOL,
    IMAGINARY_TOL,
    KERNEL_TOL,
    eigen,
    gradient_split,
    imaginary_pairs,
    kernel,
    restrict,
    subspace_equal,
)
from .systems import SystemBundle, sphere_levels


@dataclass(frozen=True)
class CheckTolerances:
    equilibrium: float = 1e-10
    kernel: float = KERNEL_TOL
    angle: float = ANGLE_TOL
    imaginary: float = IMAGINARY_TOL
    gradient: float = 1e-10
    definiteness: float = DEFINITE_TOL


@dataclass(frozen=True)
class HypothesisReport:
    """Verdict on the orbit-existence conditions at one equilibrium."""

    equilibrium_residual: float
    is_regular_value: bool
    k: int
    kernel_dim: int
    condition_i: bool
    condition_i_span_match: bool
    omegas: list[float]
    condition_ii: bool
    integral_gradient_norm: float
    restricted_hessian_spectrum: list[float]
    condition_iii: bool
    predicted_periods: list[float]
    expected_family_count: int
    family_count_floored: bool
    verdict: bool
    constraint_levels: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "equilibrium_residual": self.equilibrium_residual,
            "is_regular_value": self.is_regular_value,
            "k": self.k,
            "kernel_dim": self.kernel_dim,
            "condition_i": self.condition_i,
            "condition_i_span_match": self.condition_i_span_match,
            "omegas": list(self.omegas),
            "condition_ii": self.condition_ii,
            "integral_gradient_norm": self.integral_gradient_norm,
            "restricted_hessian_spectrum": list(self.restricted_hessian_spectrum),
            "condition_iii": self.condition_iii,
            "predicted_periods": list(self.predicted_periods),
            "expected_family_count": self.expected_family_count,
            "family_count_floored": self.family_count_floored,
            "verdict": self.verdict,
            "constraint_levels": dict(self.constraint_levels),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def check_theorem(
    bundle: SystemBundle,
    equilibrium,
    tolerances: CheckTolerances | None = None,
) -> HypothesisReport:
    """Run all conditions at the given equilibrium point.

    Raises :class:`NotAnEquilibrium` when the field residual at the point
    exceeds the equilibrium tolerance; a rank-deficient constraint gradient
    stack propagates as :class:`DependentConstraints`.
    """
    tol = tolerances or CheckTolerances()
    x0 = np.asarray(equilibrium, dtype=float)
    n = bundle.dimension
    if x0.shape != (n,):
        raise ValueError(f"equilibrium must have shape ({n},)")

    residual = float(np.max(np.abs(bundle.field(x0))))
    if not residual < tol.equilibrium:  # also catches a NaN residual
        raise NotAnEquilibrium(
            f"field residual {residual:.3e} at the supplied point exceeds {tol.equilibrium}"
        )

    k = bundle.k
    grads = [q.gradient(x0) for q in bundle.constraints]
    grad_span, joint_kernel = gradient_split(grads, n, tol.kernel)
    is_regular = grad_span.dim == k

    jac = jacobian_exact(bundle.field, x0)
    ker = kernel(jac, tol.kernel)
    kernel_dim = ker.dim
    span_match = subspace_equal(grad_span, ker, tol.angle) if kernel_dim == k else False
    condition_i = kernel_dim == k and span_match

    eig = eigen(jac, tol.imaginary)
    omegas = imaginary_pairs(eig, tol.imaginary)
    condition_ii = len(omegas) > 0

    grad_i = gradient_exact(bundle.integral, x0)
    grad_i_norm = float(np.linalg.norm(grad_i))
    hess = hessian_exact(bundle.integral, x0)
    if not is_regular:
        raise DependentConstraints("constraint gradients dependent")
    restricted = restrict(hess, joint_kernel)
    spectrum = (
        [float(v) for v in np.linalg.eigvalsh(restricted)] if restricted.size else []
    )
    # eigvalsh sorts ascending; the empty restriction counts as definite
    condition_iii = grad_i_norm < tol.gradient and (
        not spectrum or spectrum[0] > tol.definiteness
    )

    predicted = [2.0 * math.pi / w for w in omegas]
    reduced = n - k
    family_count = reduced // 2
    floored = reduced % 2 == 1

    verdict = condition_i and condition_ii and condition_iii

    return HypothesisReport(
        equilibrium_residual=residual,
        is_regular_value=is_regular,
        k=k,
        kernel_dim=kernel_dim,
        condition_i=condition_i,
        condition_i_span_match=span_match,
        omegas=[float(w) for w in omegas],
        condition_ii=condition_ii,
        integral_gradient_norm=grad_i_norm,
        restricted_hessian_spectrum=spectrum,
        condition_iii=condition_iii,
        predicted_periods=predicted,
        expected_family_count=family_count,
        family_count_floored=floored,
        verdict=verdict,
        constraint_levels=sphere_levels(bundle, x0),
    )
