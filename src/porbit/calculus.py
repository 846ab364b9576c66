"""Exact derivatives of polynomial data.

Each routine contracts the dense symmetric coefficient arrays of the
polynomial data with x (:func:`porbit.poly.derivative_at`), so no
finite-difference error enters the numerics and nothing is generated or
differentiated per call.
"""

from __future__ import annotations

import numpy as np

from .poly import Polynomial, PolynomialVectorField, derivative_at


def _poly_of(q) -> Polynomial:
    # accepts a ConservedQuantity or a bare Polynomial
    return getattr(q, "polynomial", q)


def jacobian_exact(field: PolynomialVectorField, x) -> np.ndarray:
    """n x n Jacobian of the field at x."""
    return derivative_at(field.coefficient_arrays(), x, 1)


def gradient_exact(q, x) -> np.ndarray:
    return derivative_at(_poly_of(q).coefficient_arrays(), x, 1)


def hessian_exact(q, x) -> np.ndarray:
    """Exact Hessian at x, symmetric to the bit: it is averaged with its
    transpose, which leaves the entries of a symmetric contraction as they are."""
    hess = derivative_at(_poly_of(q).coefficient_arrays(), x, 2)
    return 0.5 * (hess + hess.T)
