"""Independent oracles that the tests compare porbit's exact paths against.

Central finite differences on plain evaluations cross-check the exact
Jacobians, gradients and Hessians, and term-wise differentiation of the
monomial lists cross-checks them to round-off, as does the product-of-
polynomials expansion of grad(Q) . X the conservation test; fixed-step
classical RK4 cross-checks the adaptive integrator, a numpy Dormand-Prince
step cross-checks the generated one, and DP5 `flow` on the augmented
polynomial field (x, Phi) cross-checks the Taylor monodromy. The field
differences, RK4 and the numpy step evaluate the field from its coefficient
arrays (`field(x)`), never from the generated code under test. An inline 1:1
resonant oscillator, in a rotated frame, exercises shooting at a resonance.
"""

import math

import numpy as np

from porbit import (
    ConservedQuantity,
    StepStats,
    SystemBundle,
    ToleranceSettings,
    Trajectory,
    flow,
)
from porbit.poly import Polynomial, PolynomialVectorField

DEFAULT_FD_STEP = 1e-5

# Dormand-Prince 5(4) tableau; _E is the fifth- minus fourth-order weights
_A = (
    np.array([], dtype=float),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


def _poly_of(q):
    # accepts a ConservedQuantity or a bare Polynomial
    return getattr(q, "polynomial", q)


def jacobian_fd(field: PolynomialVectorField, x, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference Jacobian, one column per coordinate."""
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    x = np.asarray(x, dtype=float)
    n = field.dimension
    cols = []
    for j in range(n):
        step = np.zeros(n)
        step[j] = h
        cols.append((field(x + step) - field(x - step)) / (2.0 * h))
    return np.column_stack(cols)


def gradient_fd(q, x, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    p = _poly_of(q)
    x = np.asarray(x, dtype=float)
    n = p.dimension
    out = np.empty(n)
    for i in range(n):
        step = np.zeros(n)
        step[i] = h
        out[i] = (p.evaluate(x + step) - p.evaluate(x - step)) / (2.0 * h)
    return out


def hessian_fd(q, x, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Second-order central differences on scalar evaluations only."""
    p = _poly_of(q)
    x = np.asarray(x, dtype=float)
    n = p.dimension
    out = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        for j in range(i, n):
            ej = np.zeros(n)
            ej[j] = h
            v = (
                p.evaluate(x + ei + ej)
                - p.evaluate(x + ei - ej)
                - p.evaluate(x - ei + ej)
                + p.evaluate(x - ei - ej)
            ) / (4.0 * h * h)
            out[i, j] = v
            out[j, i] = v
    return out


def gradient_terms(q, x) -> np.ndarray:
    """Gradient from term-wise partial derivatives."""
    p = _poly_of(q)
    return np.array([p.differentiate(i).evaluate(x) for i in range(p.dimension)])


def hessian_terms(q, x) -> np.ndarray:
    """Hessian from term-wise second partials, mirrored from the upper triangle."""
    p = _poly_of(q)
    n = p.dimension
    grads = [p.differentiate(i) for i in range(n)]
    hess = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            hess[i, j] = hess[j, i] = grads[i].differentiate(j).evaluate(x)
    return hess


def jacobian_terms(field: PolynomialVectorField, x) -> np.ndarray:
    """Jacobian whose rows are the term-wise gradients of the components."""
    return np.array([gradient_terms(p, x) for p in field.components])


def lie_derivative_products(q, field: PolynomialVectorField) -> Polynomial:
    """grad(Q) . X expanded as a sum of products of polynomials."""
    p = _poly_of(q)
    out = Polynomial.zero(p.dimension)
    for i, comp in enumerate(field.components):
        out = out + p.differentiate(i) * comp
    return out


def rk4_fixed(field: PolynomialVectorField, x0, t_end: float, n_steps: int) -> Trajectory:
    """Classical fixed-step RK4."""
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    h = float(t_end) / n_steps
    y = np.asarray(x0, dtype=float).copy()
    ts = [0.0]
    ys = [y.copy()]
    for i in range(n_steps):
        k1 = field(y)
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ts.append((i + 1) * h)
        ys.append(y.copy())
    return Trajectory(np.array(ts), np.array(ys), StepStats(n_steps, 0))


def dp5_step(rhs, y, k1, h: float, abs_tol: float, rel_tol: float):
    """One Dormand-Prince 5(4) step in numpy stage arithmetic.

    Returns the fifth-order state, the last stage (the field at that state)
    and the RMS of the error estimate scaled by abs_tol + rel_tol * max(|y|,
    |y_new|), the contract of ``PolynomialVectorField.dp5_step``; then the
    same RMS of h * (|E| @ |k|). The weights E sum to zero, so the error
    estimate cancels, and its round-off is relative to that last value.
    """
    y = np.asarray(y, dtype=float)
    k = np.empty((7, y.size))
    k[0] = k1
    for i in range(1, 7):
        k[i] = rhs(y + h * (_A[i] @ k[:i]))
    y_new = y + h * (_B5 @ k)
    scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
    err = float(np.sqrt(np.mean((h * (_E @ k) / scale) ** 2)))
    err_size = float(np.sqrt(np.mean((h * (np.abs(_E) @ np.abs(k)) / scale) ** 2)))
    return y_new, k[6], err, err_size


def variational_field(field: PolynomialVectorField) -> PolynomialVectorField:
    """The field (f(x), J(x) Phi) in the n + n**2 variables (x, Phi).

    Phi is stored row by row after x, and J's entries are the term-wise
    partial derivatives of f's components.
    """
    n = field.dimension
    size = n + n * n

    def lifted(p, factor=None):
        # p's terms in the augmented variables, times variable `factor`
        terms = []
        for c, e in p.terms:
            e = list(e) + [0] * (n * n)
            if factor is not None:
                e[factor] += 1
            terms.append((c, e))
        return terms

    comps = [Polynomial(size, lifted(p)) for p in field.components]
    for a in range(n):
        partials = [field.components[a].differentiate(c) for c in range(n)]
        for b in range(n):
            terms = [t for c in range(n) for t in lifted(partials[c], n + c * n + b)]
            comps.append(Polynomial(size, terms))
    return PolynomialVectorField(comps)


def dp5_monodromy(field: PolynomialVectorField, x, t_end: float, tol: float):
    """Flow and fundamental matrix from DP5 `flow` on the augmented field."""
    n = field.dimension
    settings = ToleranceSettings(abs_tol=tol, rel_tol=tol)
    y = flow(variational_field(field), np.concatenate((x, np.eye(n).ravel())), t_end, settings)
    return y[:n], y[n:].reshape(n, n)


def rotated_oscillator(theta: float) -> SystemBundle:
    """1:1 resonant oscillator on (q1, q2, p1, p2), seen in a rotated frame.

    H = (|q|^2 + |p|^2) / 2 + (q1^4 + q2^4) / 4 + 0.3 q1^2 q2^2 is evaluated
    at (R^T q, R^T p), with R the rotation by theta, and the field is
    (dH/dp, -dH/dq). There are no constraints and H is the integral. R turns
    q and p alike, so the change of frame is symplectic: the normal modes
    turn by theta and the double frequency 1 stays at the origin.
    """
    n = 4

    def coordinate(i):
        return Polynomial(n, [(1.0, tuple(int(j == i) for j in range(n)))])

    q1, q2, p1, p2 = (coordinate(i) for i in range(n))
    c, s = math.cos(theta), math.sin(theta)
    u1, u2 = c * q1 + s * q2, c * q2 - s * q1
    v1, v2 = c * p1 + s * p2, c * p2 - s * p1
    h = (
        0.5 * (u1 * u1 + u2 * u2 + v1 * v1 + v2 * v2)
        + 0.25 * (u1 * u1 * u1 * u1 + u2 * u2 * u2 * u2)
        + 0.3 * (u1 * u1 * u2 * u2)
    )
    field = PolynomialVectorField(
        [h.differentiate(2), h.differentiate(3), -h.differentiate(0), -h.differentiate(1)]
    )
    return SystemBundle("rotated_oscillator", field, [], ConservedQuantity("H", h, "integral"))
