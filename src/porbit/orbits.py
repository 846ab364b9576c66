"""Periodic orbits on prescribed level sets via constrained shooting.

Orbits are found in the ambient space by single shooting: the unknowns are a
point x and the period T, and the residual stacks the closure gap
phi_T(x) - x, the level offsets Q(x) - Q(x0) of every constraint and of the
integral (whose target carries the extra eps^2), and a phase condition
anchored at the starting point. No local coordinates on the level set are
built; the consistent overdetermined least-squares step is LAPACK's
truncated-SVD least squares, and an orbit is accepted only when every
residual entry is below tolerance. The flow and its monodromy come from the
Taylor integrator, which also samples converged orbits.

When the bundle is reversible at x0, by a sign matrix R with
R f(R x) = -f(x) that fixes x0 and every conserved quantity
(:func:`reversors`), the orbits of a family are symmetric and meet Fix(R)
twice, half a period apart (Devaney, Trans. AMS 218 (1976)). The same
Gauss-Newton loop then shoots from Fix(R) back to Fix(R) over tau = T / 2,
with the +1 coordinates of x and tau as unknowns and no phase condition;
each iteration integrates half a period. The whole-period closure and the
monodromy follow from the half period (see :func:`_shoot`).

Seeding comes from the linearization: the guess sits in the oscillation
plane of the chosen +/- i omega pair, scaled so the integral offset is
eps^2 to leading order, with T0 = 2 pi / omega; a reversible family starts
where that plane meets Fix(R). The family shrinks onto the equilibrium as
eps -> 0, so continuation climbs it from below: the smallest offset is
solved from the seed, and each larger one starts from the previous orbit
scaled out by the eps ratio. A seed solve that fails is retried the same
way, up a ladder of offsets below the requested one.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .calculus import hessian_exact, jacobian_exact
from .errors import EigenplaneDegenerate, IntegrationError, OrbitSolveError
from .integrators import ToleranceSettings, flow_with_monodromy
from .spectral import eigen, imaginary_pairs, oscillation_plane
from .systems import SystemBundle


SWEEP_POINTS = 16  # directions round the oscillation plane tried by the seed
FALLBACK_RUNGS = 16  # rungs eps * j / FALLBACK_RUNGS climbed when a seed solve fails
_CANDIDATE_BLOCK = 4096  # sign matrices tested at once by reversors()


@dataclass(frozen=True)
class SolverSettings:
    """Shooting tolerances and iteration limits.

    ``svd_cutoff`` is the ``rcond`` of the Gauss-Newton least-squares step:
    singular values s <= svd_cutoff * max(s) are dropped.
    ``two_segment_fallback`` keeps its historical name: when set, a solve
    from the linearization seed that fails is retried by continuation from
    below (see :func:`solve_orbit`); there is no two-segment solver any more.
    """

    tol_orbit: float = 1e-10
    max_iter: int = 25
    svd_cutoff: float = 1e-10
    ode: ToleranceSettings = field(default_factory=ToleranceSettings)
    two_segment_fallback: bool = True

    def __post_init__(self):
        if not 0 < self.tol_orbit < math.inf:
            raise ValueError("tol_orbit must be positive and finite")
        if not 0 <= self.svd_cutoff < math.inf:  # lstsq reads a negative rcond as eps
            raise ValueError("svd_cutoff must be nonnegative and finite")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")


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
    for j in range(SWEEP_POINTS):
        theta = angle + 2.0 * math.pi * j / SWEEP_POINTS
        direction = plane @ np.array([math.cos(theta), math.sin(theta)])
        quad = float(direction @ hess @ direction)
        if quad > 0.0:
            scale = math.sqrt(2.0 / quad)
            return x0 + problem.epsilon * scale * direction, t0
    raise EigenplaneDegenerate(
        "no eigenplane direction increases the integral; the level set "
        "I = I(x0) + eps^2 is unreachable along the oscillation plane"
    )


def reversors(bundle: SystemBundle, equilibrium) -> list[np.ndarray]:
    """Every sign matrix R = diag(s) that reverses the field at x0, as s.

    R qualifies when R x0 = x0, R f(R x) = -f(x) and every constraint and
    the integral is R-invariant. The test is exact and runs term by term
    over the monomials, which are the nonzero entries of the coefficient
    arrays: x -> s x multiplies a term x^e of f_i by s_i * prod_j s_j**e_j
    and a term of an invariant by prod_j s_j**e_j, so each field term needs
    an odd count of flipped indices and each invariant term an even one.
    Candidates run in the order of ``itertools.product((1, -1), repeat=n)``
    (binary counting, first coordinate most significant), the identity left
    out, so the first entry is the same on every call.
    """
    x0 = np.asarray(equilibrium, dtype=float)
    n = x0.size
    counts, parity = [], []
    for i, component in enumerate(bundle.field.components):
        for _, e in component.terms:
            counts.append(e[:i] + (e[i] + 1,) + e[i + 1 :])
            parity.append(1)
    for q in bundle.constraints + (bundle.integral,):
        for _, e in q.polynomial.terms:
            counts.append(e)
            parity.append(0)
    counts = np.array(counts, dtype=np.int64).reshape(-1, n).T
    found = []
    for start in range(1, 2**n, _CANDIDATE_BLOCK):  # blocks bound the memory for large n
        flipped = (np.arange(start, min(start + _CANDIDATE_BLOCK, 2**n))[:, None]
                   >> np.arange(n - 1, -1, -1)) & 1
        ok = ~np.any(flipped & (x0 != 0.0), axis=1)
        ok &= np.all(flipped @ counts % 2 == parity, axis=1)
        found += [1.0 - 2.0 * b for b in flipped[ok]]
    return found


def _symmetric_guess(problem: OrbitProblem, signs: np.ndarray) -> np.ndarray:
    """Linearization seed on Fix(R), R = diag(signs).

    The direction is where the oscillation plane meets Fix(R): the null
    vector of the plane's rows at the -1 coordinates, its larger entry made
    positive. It is scaled as in :func:`initial_guess`, and the -1
    coordinates are set to those of x0.
    """
    minus = signs < 0
    plane = _orthonormal_plane(*problem.eigenplane)
    z = np.linalg.svd(plane[minus])[2][-1]
    z = z * math.copysign(1.0, z[np.argmax(np.abs(z))])
    x, _ = initial_guess(problem, math.atan2(z[1], z[0]))
    x[minus] = problem.equilibrium[minus]
    return x


def solve_orbit(
    problem: OrbitProblem,
    x_init=None,
    T_init: float | None = None,
    seed_angle: float = 0.0,
) -> PeriodicOrbit:
    """Gauss-Newton shooting for one periodic orbit.

    ``x_init`` and ``T_init`` override the linearization seed (used by
    continuation warm starts). A warm start on Fix(R), R the first of
    :func:`reversors`, is shot over half a period, from Fix(R) back to
    Fix(R); any other start is shot over the whole period (see
    :func:`_shoot`). A cold solve (no ``x_init``) starts from
    :func:`initial_guess` at ``seed_angle`` and stays on the whole period,
    because the symmetric seed of :func:`continue_family` is worse as a
    lone start: on the rigid body at M = 1, whose family ends at
    eps = 1/sqrt(2), cold half-period solves converge at eps = 0.72
    (T = 45.67) and eps = 0.8 (T = 9.55494890) to orbits that are not the
    family's, where the whole-period solve fails as "period collapsed".

    Raises :class:`OrbitSolveError` on non-convergence, a collapsed or
    runaway period or a failed integration. When a cold solve fails this way
    (other than in the integration) and ``two_segment_fallback`` is set, the
    orbit is approached from below instead: :func:`continue_family` climbs
    eps * j / 16, j = 1..16, with the fallback off, and its last rung is
    returned marked ``used_fallback``. If any rung fails, the climb has left
    the family: the seed solve's error is raised.
    """
    if not 0.0 < problem.epsilon < math.inf:
        raise ValueError(
            f"epsilon must be positive and finite, got {problem.epsilon}; "
            "the equilibrium itself is the eps = 0 limit")
    t0 = 2.0 * math.pi / problem.omega
    T = float(t0 if T_init is None else T_init)
    if x_init is None:
        x, _ = initial_guess(problem, seed_angle)
        return _rescued(problem, lambda: _shoot(problem, x, T, t0))
    x = np.array(x_init, dtype=float)
    found = reversors(problem.bundle, problem.equilibrium)
    signs = found[0] if found and np.array_equal(found[0] * x, x) else None
    return _shoot(problem, x, T, t0, signs)


def _rescued(problem: OrbitProblem, solve) -> PeriodicOrbit:
    """``solve()`` from a linearization seed, with the ladder rescue of
    :func:`solve_orbit` when it fails other than in the integration."""
    try:
        return solve()
    except OrbitSolveError as exc:
        if isinstance(exc.__cause__, IntegrationError) or not problem.settings.two_segment_fallback:
            raise
        eps = problem.epsilon
        rungs = [eps * j / FALLBACK_RUNGS for j in range(1, FALLBACK_RUNGS + 1)]
        no_fallback = replace(problem.settings, two_segment_fallback=False)
        try:
            family = continue_family(replace(problem, settings=no_fallback), rungs)
        except OrbitSolveError:
            family = None
        if family is None or family.failures:
            raise
        return replace(family.rows[-1][1], used_fallback=True)


def _shoot(problem: OrbitProblem, x, T, t0, signs=None) -> PeriodicOrbit:
    """Gauss-Newton shooting from the point x and the period T.

    One loop serves two residual layouts. Each iteration integrates once and
    evaluates one residual whose Jacobian rows are the derivatives of its
    entries, and the returned orbit reports its residuals from that one
    evaluation.

    - Whole period (``signs`` None): the unknowns are x and T, the residual
      stacks the closure gap phi_T(x) - x, the level offsets of
      ``constraints + (integral,)`` and the phase, and the monodromy is the
      integrated Phi(T).
    - Half period (``signs``, the diagonal of a reversor R with R x = x):
      the unknowns are the +1 coordinates of x and tau = T / 2, and the
      residual stacks the -1 coordinates of y = phi_tau(x) (y on Fix(R)) and
      the level offsets; Fix(R) meets the orbit at isolated points, so no
      phase row. Since phi_t(R z) = R phi_-t(z), the monodromy is
      R Phi(tau)^-1 R Phi(tau), and phi_T(x) - x is R Phi(tau)^-1 (R y - y)
      to first order: the closure reported, and checked entry by entry with
      the residual.

    The solve ends when every entry is below ``tol_orbit``, after
    ``max_iter`` steps, or when the period leaves [0.1, 10] x t0.
    """
    bundle = problem.bundle
    settings = problem.settings
    f = bundle.field
    n = bundle.dimension
    quantities = bundle.constraints + (bundle.integral,)
    targets = [q.value(problem.equilibrium) for q in quantities]
    targets[-1] += problem.epsilon**2
    m = len(quantities)
    if signs is None:
        phase_anchor = x.copy()
        phase_dir = f(phase_anchor)
    else:
        plus, minus = signs > 0, signs < 0
    span = T if signs is None else 0.5 * T  # the time integrated
    last = math.inf

    for iteration in range(settings.max_iter + 1):
        try:
            end, mono = flow_with_monodromy(f, x, span, settings.ode)
        except IntegrationError as exc:
            raise OrbitSolveError(f"integration failed during shooting: {exc}") from exc
        levels = np.array([q.value(x) - c for q, c in zip(quantities, targets)])
        if signs is None:
            gap = end - x
            phase = float(phase_dir @ (x - phase_anchor))
            residual = np.concatenate((gap, levels, [phase]))
            last = float(np.max(np.abs(residual)))
        else:
            residual = np.concatenate((end[minus], levels))
            gap = np.linalg.solve(mono, (signs - 1.0) * end)
            last = float(np.max(np.abs(np.concatenate((residual, gap)))))
        if last < settings.tol_orbit:
            if signs is not None:
                mono = signs[:, None] * np.linalg.solve(mono, signs[:, None] * mono)
            return PeriodicOrbit(
                point=x.copy(),
                period=float(T),
                closure_residual=float(np.linalg.norm(gap)),
                constraint_residuals={
                    q.name: float(abs(r)) for q, r in zip(bundle.constraints, levels)
                },
                level_residual=float(abs(levels[-1])),
                floquet_multipliers=np.linalg.eigvals(mono),
                iterations=iteration,
                epsilon=problem.epsilon,
                omega_ref=problem.omega,
            )
        if iteration == settings.max_iter:
            break

        if signs is None:
            jac = np.zeros((n + m + 1, n + 1))
            jac[:n, :n] = mono - np.eye(n)
            jac[:n, n] = f(end)
            for i, q in enumerate(quantities):
                jac[n + i, :n] = q.gradient(x)
            jac[n + m, :n] = phase_dir
        else:
            jac = np.zeros((minus.sum() + m, plus.sum() + 1))
            jac[:-m, :-1] = mono[np.ix_(minus, plus)]
            jac[:-m, -1] = f(end)[minus]
            for i, q in enumerate(quantities):
                jac[i - m, :-1] = q.gradient(x)[plus]

        step = np.linalg.lstsq(jac, -residual, rcond=settings.svd_cutoff)[0]
        if signs is None:
            x = x + step[:-1]
        else:
            x = x.copy()
            x[plus] += step[:-1]
        span = span + step[-1]
        T = span if signs is None else 2.0 * span
        if not np.all(np.isfinite(x)):
            raise OrbitSolveError("iterate became non-finite", last_residual=last)
        if not np.isfinite(T) or T < 0.1 * t0 or T > 10.0 * t0:
            raise OrbitSolveError(
                f"period collapsed: T = {T:.6g} wandered outside [0.1, 10] x {t0:.6g}",
                last_residual=last,
            )

    raise OrbitSolveError(
        f"no convergence after {settings.max_iter} iterations "
        f"(last residual {last:.3e})",
        last_residual=last,
    )


def continue_family(problem: OrbitProblem, epsilons) -> OrbitFamily:
    """Solve a list of offsets in ascending order, warm-starting each one.

    ``epsilons`` must be positive and ascending. When the bundle has a
    reversor R at x0 (the first of :func:`reversors`), every row is shot
    over half a period from Fix(R) back to Fix(R): the first offset from the
    line where the oscillation plane meets Fix(R), scaled as
    :func:`initial_guess` scales, with tau0 = pi / omega, and rescued as a
    cold :func:`solve_orbit` is. Without a reversor the first offset is a
    cold :func:`solve_orbit`. Each later offset starts once from the last
    converged orbit scaled out from the equilibrium by the eps ratio (the
    family grows linearly to leading order; Fix(R) is a linear space through
    x0, so the start stays on it) and from its period. Failed rows are
    recorded and skipped; the call raises only when no offset converges.
    """
    eps_list = [float(e) for e in epsilons]
    if not eps_list:
        raise ValueError("epsilons must be nonempty")
    if not all(0.0 < e < math.inf for e in eps_list):
        raise ValueError("epsilons must be positive and finite")
    if sorted(eps_list) != eps_list:
        raise ValueError("epsilons must be sorted ascending")

    x0 = problem.equilibrium
    found = reversors(problem.bundle, x0)
    signs = found[0] if found else None
    rows: list[tuple[float, PeriodicOrbit]] = []
    failures: dict[float, str] = {}
    for eps in eps_list:
        sub = replace(problem, epsilon=eps)
        try:
            if rows:
                prev_eps, prev_orbit = rows[-1]
                warm = x0 + (eps / prev_eps) * (prev_orbit.point - x0)
                orbit = solve_orbit(sub, x_init=warm, T_init=prev_orbit.period)
            elif signs is None:
                orbit = solve_orbit(sub)
            else:
                seed = _symmetric_guess(sub, signs)
                orbit = _rescued(sub, lambda: solve_orbit(sub, x_init=seed))
        except (OrbitSolveError, EigenplaneDegenerate) as exc:
            failures[eps] = str(exc)
            continue
        rows.append((eps, orbit))

    if not rows:
        raise OrbitSolveError(
            f"no epsilon converged out of {eps_list}; last error: {failures[eps_list[-1]]}"
        )
    return OrbitFamily(tuple(rows), problem.omega, failures)


def sample_orbit(
    bundle: SystemBundle,
    orbit: PeriodicOrbit,
    n_samples: int = 64,
    settings: ToleranceSettings | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Equally spaced states along one period, starting at the orbit point.

    Each state is the Taylor flow of the previous one over T / n_samples,
    the integrator that the shooting itself uses.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    dt = orbit.period / n_samples
    times = np.array([i * dt for i in range(n_samples)])
    states = np.empty((n_samples, bundle.dimension))
    x = orbit.point.copy()
    for i in range(n_samples):
        states[i] = x
        if i < n_samples - 1:
            x = flow_with_monodromy(bundle.field, x, dt, settings)[0]
    return times, states
