"""Exact derivatives of polynomial data.

The routines differentiate the monomial representation term-wise and
evaluate, so no finite-difference error enters the numerics.
"""

from __future__ import annotations

import numpy as np

from .poly import Polynomial, PolynomialVectorField


def _poly_of(q) -> Polynomial:
    # accepts a ConservedQuantity or a bare Polynomial
    return getattr(q, "polynomial", q)


def jacobian_exact(field: PolynomialVectorField, x) -> np.ndarray:
    """n x n Jacobian of the field at x, from term-wise differentiation."""
    x = np.asarray(x, dtype=float)
    return field.compiled_jacobian()(x)


def gradient_exact(q, x) -> np.ndarray:
    p = _poly_of(q)
    x = np.asarray(x, dtype=float)
    return np.array([g.evaluate(x) for g in p.gradient_polys()])


def hessian_exact(q, x) -> np.ndarray:
    """Exact Hessian at x. Mixed entries are computed once and mirrored, so
    the result is symmetric to the bit."""
    p = _poly_of(q)
    x = np.asarray(x, dtype=float)
    n = p.dimension
    grads = p.gradient_polys()
    hess = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            v = grads[i].differentiate(j).evaluate(x)
            hess[i, j] = v
            hess[j, i] = v
    return hess
