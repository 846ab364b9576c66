"""Periodic orbits on prescribed level sets via constrained shooting.

Orbits are found in the ambient space by multiple shooting with m segments
(one, then two as a fallback): the unknowns are a point x, the m - 1 interior
segment points and the period T, and the residual stacks the gaps between
segments, the constraint offsets C_i(x) - C_i(x0), the integral offset
I(x) - I(x0) - eps^2, and a phase condition anchored at the seed point. No
local coordinates on the level set are built; the consistent overdetermined
least-squares step is solved by a truncated SVD.

Seeding comes from the linearization: the guess sits in the oscillation
plane of the chosen +/- i omega pair, scaled so the integral offset is
eps^2 to leading order, with T0 = 2 pi / omega. Continuation in eps solves
the largest offset first and warm-starts smaller ones by shrinking the
converged orbit toward the equilibrium.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .calculus import gradient_exact, hessian_exact, jacobian_exact
from .errors import EigenplaneDegenerate, IntegrationError, OrbitSolveError
from .integrators import ToleranceSettings, flow, flow_with_monodromy, write_states_csv
from .spectral import eigen, imaginary_pairs, oscillation_plane
from .systems import SystemBundle


@dataclass(frozen=True)
class SolverSettings:
    tol_orbit: float = 1e-10
    max_iter: int = 25
    svd_cutoff: float = 1e-10
    ode: ToleranceSettings = field(default_factory=ToleranceSettings)
    sweep_points: int = 16
    two_segment_fallback: bool = True


@dataclass(frozen=True)
class OrbitProblem:
    """One shooting problem: bundle, equilibrium, frequency family, offset."""

    bundle: SystemBundle
    equilibrium: np.ndarray
    omega: float
    eigenplane: tuple[np.ndarray, np.ndarray]
    epsilon: float
    settings: SolverSettings = field(default_factory=SolverSettings)


def orbit_problem(
    bundle: SystemBundle,
    equilibrium,
    omega: float,
    epsilon: float,
    settings: SolverSettings | None = None,
) -> OrbitProblem:
    """Assemble an :class:`OrbitProblem`, extracting the oscillation plane.

    Warns when another frequency family sits within 1% of the chosen one;
    near-resonant families are attempted but come without any guarantee.
    """
    x0 = np.asarray(equilibrium, dtype=float)
    jac = jacobian_exact(bundle.field, x0)
    others = [
        w
        for w in imaginary_pairs(eigen(jac))
        if abs(w - omega) > 1e-9 * max(1.0, omega)
    ]
    if any(abs(w - omega) < 0.01 * max(w, omega) for w in others):
        warnings.warn(
            f"frequency {omega:.6g} is near-resonant with another family; "
            "the orbit solve is attempted anyway",
            stacklevel=2,
        )
    u, v = oscillation_plane(jac, omega)
    return OrbitProblem(
        bundle, x0, float(omega), (u, v), float(epsilon), settings or SolverSettings()
    )


@dataclass(frozen=True)
class PeriodicOrbit:
    """A converged orbit: a point on it, its period, and quality measures."""

    point: np.ndarray
    period: float
    closure_residual: float
    constraint_residuals: dict[str, float]
    level_residual: float
    floquet_multipliers: np.ndarray
    iterations: int
    epsilon: float
    omega_ref: float
    used_fallback: bool = False

    def to_dict(self) -> dict:
        return {
            "point": [float(v) for v in self.point],
            "period": self.period,
            "closure_residual": self.closure_residual,
            "constraint_residuals": dict(self.constraint_residuals),
            "level_residual": self.level_residual,
            "floquet_multipliers": [
                [float(m.real), float(m.imag)] for m in self.floquet_multipliers
            ],
            "iterations": self.iterations,
            "epsilon": self.epsilon,
            "omega_ref": self.omega_ref,
            "used_fallback": self.used_fallback,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


@dataclass(frozen=True)
class OrbitFamily:
    """Converged orbits indexed by eps, plus per-eps failure messages."""

    rows: tuple[tuple[float, PeriodicOrbit], ...]
    omega_ref: float
    failures: dict[float, str] = field(default_factory=dict)

    def epsilons(self) -> list[float]:
        return [eps for eps, _ in self.rows]

    def periods(self) -> list[float]:
        return [orbit.period for _, orbit in self.rows]

    def to_dict(self) -> dict:
        return {
            "omega_ref": self.omega_ref,
            "rows": [
                {"epsilon": eps, "orbit": orbit.to_dict()} for eps, orbit in self.rows
            ],
            "failures": {repr(eps): msg for eps, msg in self.failures.items()},
        }


def _orthonormal_plane(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span{u, v} with the first vector along u."""
    q, r = np.linalg.qr(np.column_stack((u, v)))
    return q * np.sign(np.diag(r))


def initial_guess(problem: OrbitProblem, angle: float = 0.0) -> tuple[np.ndarray, float]:
    """Linearization seed: a point on the eps^2 integral offset, and T0.

    The direction is taken in the oscillation plane at the given angle and
    scaled so the quadratic part of the integral offset equals eps^2; if the
    quadratic form is nonpositive there, nearby angles are swept before
    giving up.
    """
    x0 = problem.equilibrium
    t0 = 2.0 * math.pi / problem.omega
    if problem.epsilon == 0.0:
        return x0.copy(), t0
    hess = hessian_exact(problem.bundle.integral, x0)
    plane = _orthonormal_plane(*problem.eigenplane)
    sweep = problem.settings.sweep_points
    for j in range(sweep):
        theta = angle + 2.0 * math.pi * j / sweep
        direction = plane @ np.array([math.cos(theta), math.sin(theta)])
        quad = float(direction @ hess @ direction)
        if quad > 0.0:
            scale = math.sqrt(2.0 / quad)
            return x0 + problem.epsilon * scale * direction, t0
    raise EigenplaneDegenerate(
        "no eigenplane direction increases the integral; the level set "
        "I = I(x0) + eps^2 is unreachable along the oscillation plane"
    )


def _constraint_data(problem: OrbitProblem):
    bundle = problem.bundle
    x0 = problem.equilibrium
    c_targets = [q.value(x0) for q in bundle.constraints]
    i_target = bundle.integral.value(x0) + problem.epsilon**2
    return c_targets, i_target


def _svd_step(jac: np.ndarray, residual: np.ndarray, cutoff: float) -> np.ndarray:
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    smax = s[0] if s.size else 0.0
    keep = s > cutoff * smax
    coeffs = u.T @ residual
    weights = np.zeros_like(s)
    weights[keep] = coeffs[keep] / s[keep]
    return -(vt.T @ weights)


class _LevelSetWatch:
    """Flags stagnation of the constraint block above the adherence floor."""

    def __init__(self, floor: float = 1e-6, window: int = 3):
        self.floor = floor
        self.window = window
        self.history: list[float] = []

    def update(self, value: float):
        self.history.append(value)
        recent = self.history[-(self.window + 1):]
        if len(recent) <= self.window:
            return
        if all(v > self.floor for v in recent) and recent[-1] > 0.5 * recent[0]:
            raise OrbitSolveError("left level set", last_residual=value)


def solve_orbit(
    problem: OrbitProblem,
    x_init=None,
    T_init: float | None = None,
    seed_angle: float = 0.0,
) -> PeriodicOrbit:
    """Gauss-Newton shooting for one periodic orbit.

    ``x_init`` and ``T_init`` override the linearization seed (used by
    continuation warm starts). Raises :class:`OrbitSolveError` on
    non-convergence, a collapsed or runaway period, or constraint-residual
    stagnation; a single two-segment retry is attempted first when enabled.
    """
    if problem.epsilon <= 0.0:
        raise ValueError("epsilon must be positive; the equilibrium itself is the eps = 0 limit")
    t0 = 2.0 * math.pi / problem.omega
    if x_init is None:
        x, _ = initial_guess(problem, seed_angle)
    else:
        x = np.array(x_init, dtype=float)
    T = float(t0 if T_init is None else T_init)
    segment_counts = (1, 2) if problem.settings.two_segment_fallback else (1,)
    for m in segment_counts:
        try:
            return _shoot(problem, x, T, t0, m)
        except IntegrationError as exc:
            raise OrbitSolveError(f"integration failed during shooting: {exc}") from exc
        except OrbitSolveError:
            if m == segment_counts[-1]:
                raise


def _orbit_record(problem, x, T, closure_vec, monodromy_matrix, iterations, fallback=False):
    bundle = problem.bundle
    c_targets, i_target = _constraint_data(problem)
    constraint_residuals = {
        q.name: abs(q.value(x) - target)
        for q, target in zip(bundle.constraints, c_targets)
    }
    return PeriodicOrbit(
        point=x.copy(),
        period=float(T),
        closure_residual=float(np.linalg.norm(closure_vec)),
        constraint_residuals={k: float(v) for k, v in constraint_residuals.items()},
        level_residual=float(abs(bundle.integral.value(x) - i_target)),
        floquet_multipliers=np.linalg.eigvals(monodromy_matrix),
        iterations=iterations,
        epsilon=problem.epsilon,
        omega_ref=problem.omega,
        used_fallback=fallback,
    )


def _guard_period(T: float, t0: float, last_residual: float):
    if not np.isfinite(T) or T < 0.1 * t0 or T > 10.0 * t0:
        raise OrbitSolveError(
            f"period collapsed: T = {T:.6g} wandered outside [0.1, 10] x {t0:.6g}",
            last_residual=last_residual,
        )


def _shoot(problem: OrbitProblem, x, T, t0, m: int) -> PeriodicOrbit:
    """Gauss-Newton shooting with m segments of duration T / m.

    Segment j carries x_j (x_0 = x) onto x_{(j+1) mod m}; the interior
    points start on the flow from x.
    """
    bundle = problem.bundle
    settings = problem.settings
    f = bundle.field.compiled()
    n = bundle.dimension
    c_targets, i_target = _constraint_data(problem)
    k = len(c_targets)
    phase_anchor = x.copy()
    phase_dir = f(phase_anchor)
    points = [x] + [flow(bundle.field, x, j * T / m, settings.ode) for j in range(1, m)]
    watch = _LevelSetWatch()
    last = math.inf

    for iteration in range(settings.max_iter + 1):
        x = points[0]
        segments = [flow_with_monodromy(bundle.field, p, T / m, settings.ode) for p in points]
        gaps = [end - points[(j + 1) % m] for j, (end, _) in enumerate(segments)]
        c_res = np.array(
            [q.value(x) - target for q, target in zip(bundle.constraints, c_targets)]
        )
        i_res = bundle.integral.value(x) - i_target
        phase = float(phase_dir @ (x - phase_anchor))
        residual = np.concatenate((*gaps, c_res, [i_res], [phase]))
        last = float(np.max(np.abs(residual)))
        if last < settings.tol_orbit:
            mono = segments[0][1]
            for _, mono_j in segments[1:]:
                mono = mono_j @ mono
            # a gap of m > 1 segments is not the closure of the full-period flow
            closure = gaps[0] if m == 1 else flow(bundle.field, x, T, settings.ode) - x
            return _orbit_record(problem, x, T, closure, mono, iteration, fallback=m > 1)
        if iteration == settings.max_iter:
            break
        watch.update(max(np.max(np.abs(c_res), initial=0.0), abs(i_res)))

        jac = np.zeros((m * n + k + 2, m * n + 1))
        for j, (end, mono_j) in enumerate(segments):
            rows = slice(j * n, (j + 1) * n)
            nxt = (j + 1) % m
            jac[rows, rows] = mono_j
            jac[rows, nxt * n : (nxt + 1) * n] -= np.eye(n)
            jac[rows, m * n] = f(end) / m
        for i, q in enumerate(bundle.constraints):
            jac[m * n + i, :n] = q.gradient(x)
        jac[m * n + k, :n] = gradient_exact(bundle.integral, x)
        jac[m * n + k + 1, :n] = phase_dir

        step = _svd_step(jac, residual, settings.svd_cutoff)
        points = [p + step[j * n : (j + 1) * n] for j, p in enumerate(points)]
        T = T + step[m * n]
        if not all(np.all(np.isfinite(p)) for p in points):
            raise OrbitSolveError("iterate became non-finite", last_residual=last)
        _guard_period(T, t0, last)

    fallback_note = "two-segment fallback, " if m == 2 else ""
    raise OrbitSolveError(
        f"no convergence after {settings.max_iter} iterations "
        f"({fallback_note}last residual {last:.3e})",
        last_residual=last,
    )


def continue_family(problem: OrbitProblem, epsilons) -> OrbitFamily:
    """Solve a list of offsets, warm-starting each from its larger neighbor.

    ``epsilons`` must be positive and ascending. The largest offset is solved
    from the linearization seed; each smaller one starts from the previous
    orbit scaled toward the equilibrium (the family shrinks linearly to
    leading order). Failed rows are recorded and skipped; the call raises
    only when no offset converges.
    """
    eps_list = [float(e) for e in epsilons]
    if not eps_list:
        raise ValueError("epsilons must be nonempty")
    if any(e <= 0.0 for e in eps_list):
        raise ValueError("epsilons must be positive")
    if sorted(eps_list) != eps_list:
        raise ValueError("epsilons must be sorted ascending")

    x0 = problem.equilibrium
    rows: list[tuple[float, PeriodicOrbit]] = []
    failures: dict[float, str] = {}
    prev: tuple[float, PeriodicOrbit] | None = None

    for eps in reversed(eps_list):
        sub = replace(problem, epsilon=eps)
        attempts = []
        if prev is not None:
            prev_eps, prev_orbit = prev
            warm = x0 + (eps / prev_eps) * (prev_orbit.point - x0)
            attempts.append((warm, prev_orbit.period))
        attempts.append((None, None))
        orbit = None
        error = None
        for x_init, t_init in attempts:
            try:
                orbit = solve_orbit(sub, x_init=x_init, T_init=t_init)
                break
            except (OrbitSolveError, EigenplaneDegenerate) as exc:
                error = exc
        if orbit is None:
            failures[eps] = str(error)
            continue
        rows.append((eps, orbit))
        prev = (eps, orbit)

    if not rows:
        raise OrbitSolveError(
            f"no epsilon converged out of {eps_list}; last error: {error}"
        )
    rows.sort(key=lambda item: item[0])
    return OrbitFamily(tuple(rows), problem.omega, failures)


def sample_orbit(
    bundle: SystemBundle,
    orbit: PeriodicOrbit,
    n_samples: int = 64,
    settings: ToleranceSettings | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Equally spaced states along one period, starting at the orbit point."""
    if n_samples < 2:
        raise ValueError("need at least two samples")
    settings = settings or ToleranceSettings()
    dt = orbit.period / n_samples
    times = np.array([i * dt for i in range(n_samples)])
    states = np.empty((n_samples, bundle.dimension))
    x = orbit.point.copy()
    for i in range(n_samples):
        states[i] = x
        if i < n_samples - 1:
            x = flow(bundle.field, x, dt, settings)
    return times, states


def orbit_samples_csv(bundle, orbit, target, n_samples: int = 64, settings=None):
    """Write sampled orbit states as ``t,x1,...,xn`` rows."""
    write_states_csv(*sample_orbit(bundle, orbit, n_samples, settings), target)
