"""Adaptive trajectory integration, flow maps, and variational equations.

Trajectories and flow maps (:func:`integrate`, :func:`flow`) use an embedded
Dormand-Prince 5(4) pair with a PI step-size controller (safety 0.9,
exponents 0.7 and 0.4 over the order). Each step is one straight-line
function of Python floats that the field generates from its term lists
(:meth:`PolynomialVectorField.dp5_step`); the loop around it keeps floats
too and stores accepted states in flat ``array("d")`` buffers, because numpy
calls on arrays of length 3 or 6 cost more than the arithmetic. The shooting
hot path,
:func:`flow_with_monodromy` and so :func:`monodromy`, integrates the state and
its fundamental matrix by Taylor series instead: the fields are polynomial,
so Cauchy products give the Taylor coefficients of both exactly (jet
transport; Jorba and Zou, Exp. Math. 14 (2005) 99-117), and one high-order
step spans a sizeable fraction of a period. The systems here are small and
non-stiff, so no implicit or symplectic machinery is provided; conservation
is monitored by :func:`drift_report` at tight tolerances instead. Negative
time is the sign of the step: both integrators control the step's size and
pass it signed to the step or the Taylor sum. Round-to-nearest is symmetric
in sign, so this gives bit for bit what the negated field gives forwards.
"""

from __future__ import annotations

import math
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .errors import IntegrationError
from .poly import PolynomialVectorField

_ORDER = 5
_SAFETY = 0.9
_EXP_ERR = 0.7 / _ORDER
_EXP_PREV = 0.4 / _ORDER
_MAX_GROWTH = 5.0
_MIN_SHRINK = 0.2


@dataclass(frozen=True)
class ToleranceSettings:
    """Error control for both integrators.

    DP5 (:func:`integrate`, :func:`flow`): ``abs_tol`` and ``rel_tol`` bound
    each step's local error estimate, ``h_init`` is the first step (None
    picks one from the data), ``h_min`` and ``h_max`` bound the step, and
    ``max_steps`` counts accepted plus rejected steps.

    Taylor (:func:`flow_with_monodromy`): ``abs_tol`` and ``rel_tol`` bound
    the local Taylor error and set the order, ``h_min``, ``h_max`` and
    ``max_steps`` bound the steps in the same way, and ``h_init`` has no
    effect.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_steps: int = 10_000_000
    h_init: float | None = None  # None picks a starting step from the data
    h_min: float = 1e-13
    h_max: float = math.inf

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not (self.h_min > 0 and self.h_max > 0):
            raise ValueError("step bounds must be positive")
        if self.h_init is not None and not (self.h_min <= self.h_init <= self.h_max):
            raise ValueError("need h_min <= h_init <= h_max")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")

    def tightened(self, factor: float) -> "ToleranceSettings":
        """Same settings with both tolerances divided by ``factor``."""
        return replace(self, abs_tol=self.abs_tol / factor, rel_tol=self.rel_tol / factor)


@dataclass(frozen=True)
class StepStats:
    """Step counts of one integration.

    ``rhs_evals`` counts field evaluations: 6 per attempted DP5 step, plus one
    for the starting derivative and one for the starting-step probe when
    ``h_init`` is None.
    """

    accepted: int
    rejected: int
    rhs_evals: int = 0


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration states; ``states[0]`` is the initial condition."""

    times: np.ndarray
    states: np.ndarray
    stats: StepStats

    def to_csv(self, target):
        """Write ``t,x1,...,xn`` rows; ``target`` is a path or a file object."""
        write_states_csv(self.times, self.states, target)


def write_states_csv(times, states, target):
    """Write ``t,x1,...,xn`` rows; ``target`` is a path or a file object."""
    n = states.shape[1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(n)) + "\n"
    line = ",".join(["{!r}"] * (n + 1)) + "\n"
    # row by row, so no second copy of the states is held as Python floats
    times = np.asarray(times, dtype=float).tolist()
    rows = (line.format(t, *row) for t, row in zip(times, map(np.ndarray.tolist, states)))
    with open(target, "w") if not hasattr(target, "write") else nullcontext(target) as fh:
        fh.write(header)
        fh.writelines(rows)


def _initial_step(rhs, y0, f0, direction: float, settings: ToleranceSettings) -> float:
    """Conservative starting step size from the local scale of y and f.

    The probe step goes in the given time ``direction`` (+1 or -1). Returns
    0 when (f0 / scale)**2 overflows, so the caller's h_min check
    reports the step underflow.
    """
    scale = settings.abs_tol + settings.rel_tol * np.abs(y0)
    with np.errstate(over="ignore"):
        d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
        d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if h0 == 0.0:
        return 0.0
    y1 = y0 + (direction * h0) * f0
    f1 = rhs(y1)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / _ORDER)
    return min(100.0 * h0, h1, settings.h_max)


def _dp5(field: PolynomialVectorField, x, t_end: float, settings: ToleranceSettings, collect: bool):
    """Integrate x' = f(x) from 0 to t_end != 0.

    One float loop around the field's generated step: the PI controller, the
    FSAL reuse of the last stage and the step checks. ``t`` and ``h`` are
    magnitudes; the step runs at ``direction * h``. Returns a
    :class:`Trajectory` when ``collect``, else the final state and the
    :class:`StepStats`.
    """
    f = field.compiled()
    step = field.dp5_step()
    direction = math.copysign(1.0, t_end)
    y0 = np.array(x, dtype=float)
    dim = y0.size
    f0 = f(y0)
    if settings.h_init is None:
        h, evals = _initial_step(f, y0, f0, direction, settings), 2
    else:
        h, evals = settings.h_init, 1
    t_end = abs(t_end)
    atol, rtol, h_min, h_max = settings.abs_tol, settings.rel_tol, settings.h_min, settings.h_max
    h = min(h, t_end, h_max)
    y, k = tuple(y0.tolist()), tuple(f0.tolist())
    t = 0.0
    ts, ys = array("d", [t]), array("d", y)
    accepted = 0
    rejected = 0
    err_prev = 1.0

    while t < t_end:
        if accepted + rejected >= settings.max_steps:
            raise IntegrationError(f"max steps exceeded ({settings.max_steps})")
        if not h >= h_min:  # also catches a NaN step
            raise IntegrationError(f"step underflow: h = {h:.3e} at t = {t:.6g}")
        h = min(h, t_end - t)

        try:
            y_new, k_new, err = step(y, k, direction * h, atol, rtol)
        except OverflowError:
            err = 2.0  # a stage overflowed: reject and shrink
        if not math.isfinite(err):
            err = 2.0  # forces rejection and shrink

        if err <= 1.0:
            t += h
            y, k = y_new, k_new  # FSAL: the last stage seeds the next step
            if not all(map(math.isfinite, y)):
                raise IntegrationError(f"non-finite state at t = {t:.6g}")
            accepted += 1
            if collect:
                ts.append(t)
                ys.extend(y)
            err = max(err, 1e-10)
            factor = _SAFETY * err ** (-_EXP_ERR) * err_prev ** _EXP_PREV
            err_prev = err
        else:
            rejected += 1
            factor = max(_MIN_SHRINK, _SAFETY * err ** (-1.0 / _ORDER))
            factor = min(factor, 1.0)
        h = min(h * min(max(factor, _MIN_SHRINK), _MAX_GROWTH), h_max)

    stats = StepStats(accepted, rejected, evals + 6 * (accepted + rejected))
    if collect:
        return Trajectory(np.frombuffer(ts), np.frombuffer(ys).reshape(-1, dim), stats)
    return np.array(y), stats


def integrate(
    field: PolynomialVectorField,
    x0,
    t_end: float,
    settings: ToleranceSettings | None = None,
) -> Trajectory:
    """Adaptive integration storing every accepted step."""
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite; use flow() for reversed time")
    settings = settings or ToleranceSettings()
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial state must be finite")
    return _dp5(field, x0, float(t_end), settings, collect=True)


def flow(
    field: PolynomialVectorField,
    x,
    T: float,
    settings: ToleranceSettings | None = None,
) -> np.ndarray:
    """Time-T map of the field; negative T runs time backwards."""
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got {T}")
    settings = settings or ToleranceSettings()
    x = np.asarray(x, dtype=float)
    if T == 0.0:
        return x.copy()
    y, _ = _dp5(field, x, float(T), settings, collect=False)
    return y


def _taylor_order(settings: ToleranceSettings) -> int:
    """Taylor order ceil(-ln(tol)) for the tighter tolerance.

    Jorba and Zou take ceil(1 - ln(tol) / 2), which minimises the work per
    unit time when a step of order p costs O(p^2). Here each coefficient
    costs a fixed handful of numpy calls, so a step costs O(p), and
    p * tol**(-1/p) is smallest at p = -ln(tol).
    """
    return max(2, math.ceil(-math.log(min(settings.abs_tol, settings.rel_tol))))


def _jets(arrays, x, p: int):
    """Taylor coefficients up to t**p of the flow and its fundamental matrix.

    Returns ``X`` with ``x(t) = sum_k X[k] t**k`` and ``R`` with
    ``Phi(t) = sum_k R[p - k] t**k``, where dPhi/dt = J(x(t)) Phi and
    Phi(0) = I. The degree-d term of the field takes one Cauchy product of
    the series of the (d-1)-fold tensor power of x with X, then one
    contraction with its coefficient array; the Jacobian series reuses the
    same tensor-power series.
    """
    n = x.size
    top = len(arrays) - 1
    flat = [a.reshape(n, -1) for a in arrays]
    X = np.zeros((p + 1, n))
    X[0] = x
    powers = [None, X] + [np.zeros((p, n**e)) for e in range(2, top)]
    for k in range(p):
        term = flat[1] @ X[k]
        if k == 0:
            term += arrays[0]
        for d in range(2, top + 1):
            product = (powers[d - 1][: k + 1].T @ X[k::-1]).ravel()
            if d < top:
                powers[d][k] = product
            term += flat[d] @ product
        X[k + 1] = term / (k + 1)

    # J(x) = sum_d d T_d(x, ..., x, .), so J_m = sum_d d T_d . powers[d - 1][m]
    jac = np.zeros((n * n, p))
    for d in range(2, top + 1):
        jac += d * arrays[d].reshape(n * n, -1) @ powers[d - 1][:p].T
    jac = np.ascontiguousarray(jac.reshape(n, n, p).transpose(0, 2, 1))
    jac[:, 0] += arrays[1]
    jac = jac.reshape(n, p * n)  # J_0 | J_1 | ... | J_{p-1}
    R = np.zeros((p + 1, n, n))  # reversed, so Phi_k, ..., Phi_0 is one slice
    R[p] = np.eye(n)
    rows = R.reshape(-1, n)
    for k in range(p):
        R[p - k - 1] = (jac[:, : (k + 1) * n] @ rows[(p - k) * n :]) / (k + 1)
    return X, R


def _taylor_advance(arrays, x, t_end: float, settings: ToleranceSettings):
    """Flow and fundamental matrix from 0 to t_end != 0 by Taylor steps.

    The step size is Jorba and Zou's: the smallest radius (tol / |c_j|)**(1/j)
    over the last two coefficients c_j of both series, shrunk by
    exp(-0.7 / (p - 1)). Taylor steps are never rejected. The state and the
    step's fundamental matrix are summed by Horner's rule at the signed
    step, and the matrices are composed step by step.
    """
    n = x.size
    direction = math.copysign(1.0, t_end)
    t_end = abs(t_end)
    p = _taylor_order(settings)
    safety = math.exp(-0.7 / (p - 1))
    exps = np.array([1.0 / (p - 1), 1.0 / p] * 2)
    tol_m = settings.abs_tol + settings.rel_tol  # Phi starts at the identity
    m = np.eye(n)
    t = 0.0
    steps = 0
    # a blowup overflows the series first; the step checks below report it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while t < t_end:
            if steps >= settings.max_steps:
                raise IntegrationError(f"max steps exceeded ({settings.max_steps})")
            X, R = _jets(arrays, x, p)
            tol_x = settings.abs_tol + settings.rel_tol * float(np.max(np.abs(x)))
            norms = np.concatenate((np.abs(X[p - 1 :]).max(axis=1), np.abs(R[1::-1]).max(axis=(1, 2))))
            radius = float(np.min((np.array([tol_x, tol_x, tol_m, tol_m]) / norms) ** exps))
            h = min(safety * radius, settings.h_max)
            if not h >= settings.h_min:  # also catches a NaN radius
                raise IntegrationError(f"step underflow: h = {h:.3e} at t = {t:.6g}")
            h = min(h, t_end - t)
            coeffs = np.concatenate((X, R[::-1].reshape(p + 1, -1)), axis=1)
            y = coeffs[p]
            signed = direction * h
            for c in coeffs[p - 1 :: -1]:
                y = y * signed + c
            t += h
            steps += 1
            x = y[:n]
            m = y[n:].reshape(n, n) @ m
            if not np.all(np.isfinite(y)):
                raise IntegrationError(f"non-finite state at t = {t:.6g}")
    return x, m


def flow_with_monodromy(
    field: PolynomialVectorField,
    x,
    T: float,
    settings: ToleranceSettings | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Final state and fundamental matrix of the variational equation.

    Both come from Taylor jets of the polynomial field (Jorba and Zou 2005):
    ``abs_tol`` and ``rel_tol`` bound the local Taylor error, ``max_steps``,
    ``h_min`` and ``h_max`` bound the steps, and ``h_init`` has no effect.
    Negative T runs time backwards.
    """
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got {T}")
    settings = settings or ToleranceSettings()
    x = np.asarray(x, dtype=float)
    if T == 0.0:
        return x.copy(), np.eye(field.dimension)
    return _taylor_advance(field.coefficient_arrays(), x, float(T), settings)


def monodromy(
    field: PolynomialVectorField,
    x,
    T: float,
    settings: ToleranceSettings | None = None,
) -> np.ndarray:
    """Fundamental matrix M(T) with M(0) = identity."""
    _, m = flow_with_monodromy(field, x, T, settings)
    return m


def drift_report(trajectory: Trajectory, quantities) -> list[tuple[str, float]]:
    """Max deviation of each quantity from its initial value along the states."""
    if trajectory.states.shape[0] == 0:
        raise ValueError("empty trajectory")
    out = []
    for q in quantities:
        poly = getattr(q, "polynomial", q)
        name = getattr(q, "name", "quantity")
        values = poly.evaluate_many(trajectory.states)
        out.append((name, float(np.max(np.abs(values - values[0])))))
    return out
