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
(:func:`reversors`), a symmetric orbit meets Fix(R) twice, half a period
apart (Devaney, Trans. AMS 218 (1976)), and Fix(R1) and Fix(R2) of two
reversors a quarter period apart (Lamb and Roberts, Physica D 112 (1998)).
A family is then shot from Fix(R1) to Fix(R2) over tau = T / 4, or back to
Fix(R1) over T / 2, with the +1 coordinates of x and tau as unknowns and no
phase condition; the whole-period closure and the monodromy follow by
reflection. All three layouts are the same Gauss-Newton loop, given the
reflections it applies, none for the whole period (see :func:`_shoot` and
:func:`_reflections`).

Seeding comes from the linearization: the guess sits in the oscillation
plane of the chosen +/- i omega pair, scaled so the integral offset is
eps^2 to leading order, with T0 = 2 pi / omega; a reversible family starts
where that plane meets Fix(R1). The family shrinks onto the equilibrium as
eps -> 0, so continuation climbs it from below: the smallest offset is
solved from the seed, and each larger one starts from a prediction made of
the converged rows below it, (x - x0) / eps interpolated in eps and T in
eps^2 (see :func:`_predict`). A seed solve that fails is retried the same
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
PREDICTOR_ROWS = 4  # converged rows the continuation predictor interpolates at most
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
    """A converged orbit: a point on it, its period, and quality measures.

    ``floquet_multipliers`` are the monodromy's eigenvalues by descending
    |mu - 1|, ties by descending imaginary part.
    """

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


def _fix_line(problem: OrbitProblem, signs: np.ndarray) -> np.ndarray:
    """Coordinates, in the orthonormal oscillation plane, of the unit vector
    where the plane meets Fix(R), R = diag(signs): the null vector of the
    plane's rows at the -1 coordinates, its larger entry made positive."""
    z = np.linalg.svd(_orthonormal_plane(*problem.eigenplane)[signs < 0])[2][-1]
    return z * math.copysign(1.0, z[np.argmax(np.abs(z))])


def _symmetric_guess(problem: OrbitProblem, signs: np.ndarray) -> np.ndarray:
    """Linearization seed on Fix(R), R = diag(signs): the direction of
    :func:`_fix_line`, scaled as in :func:`initial_guess`, with the -1
    coordinates set to those of x0."""
    z = _fix_line(problem, signs)
    x, _ = initial_guess(problem, math.atan2(z[1], z[0]))
    x[signs < 0] = problem.equilibrium[signs < 0]
    return x


def _reflections(problem: OrbitProblem) -> tuple[np.ndarray, ...]:
    """The reflections of :func:`_shoot`'s reversible layout: (R2, R1) for a
    quarter period, (R1,) for half a period, () when there is no reversor.

    R1 is the first of :func:`reversors`. The linearized orbit from d on the
    line of :func:`_fix_line` is at J d / omega (J the Jacobian at x0) a
    quarter period later. R2 is the first other reversor whose fixed set
    holds that point, to 1e-8 relative; without one the layout is the half.
    """
    found = reversors(problem.bundle, problem.equilibrium)
    if not found:
        return ()
    d = _orthonormal_plane(*problem.eigenplane) @ _fix_line(problem, found[0])
    quarter = np.abs(jacobian_exact(problem.bundle.field, problem.equilibrium) @ d)
    pairs = [(r, found[0]) for r in found[1:] if np.all(quarter[r < 0] <= 1e-8 * quarter.max())]
    return (pairs or [(found[0],)])[0]


def solve_orbit(
    problem: OrbitProblem,
    x_init=None,
    T_init: float | None = None,
    seed_angle: float = 0.0,
) -> PeriodicOrbit:
    """Gauss-Newton shooting for one periodic orbit.

    ``x_init`` and ``T_init`` override the linearization seed; ``x_init``
    must be a finite point of the bundle's dimension. A start on Fix(R1) is
    shot in the layout of :func:`_reflections`, any other over the whole
    period, the layout with no reflections (see :func:`_shoot`). A cold
    solve (no ``x_init``) starts from :func:`initial_guess` at
    ``seed_angle`` and stays on the whole period, because the symmetric
    seed of :func:`continue_family` is worse as a lone start: on the rigid
    body at M = 1, whose family ends at eps = 1/sqrt(2), cold half-period
    solves converge at eps = 0.72 (T = 45.67) and eps = 0.8
    (T = 9.55494890) to orbits that are not the family's, where the
    whole-period solve fails as "period collapsed".

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
    T = float(2.0 * math.pi / problem.omega if T_init is None else T_init)
    if x_init is None:
        return _rescued(problem, initial_guess(problem, seed_angle)[0], T, ())
    x = np.array(x_init, dtype=float)
    n = problem.bundle.dimension
    if x.shape != (n,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x_init must be a finite point of shape ({n},), got {x_init!r}")
    refl = _reflections(problem)
    on_fix = bool(refl) and np.array_equal(refl[-1] * x, x)
    return _shoot(problem, x, T, refl if on_fix else ())


def _rescued(problem: OrbitProblem, x, T: float, refl) -> PeriodicOrbit:
    """:func:`_shoot` from a linearization seed, with the ladder rescue of
    :func:`solve_orbit` when it fails other than in the integration."""
    try:
        return _shoot(problem, x, T, refl)
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


def _shoot(problem: OrbitProblem, x, T: float, refl) -> PeriodicOrbit:
    """Gauss-Newton shooting from the point x and the period T.

    One loop serves every layout. ``refl`` holds the reversor diagonals the
    layout reflects in (:func:`_reflections`): () for the whole period,
    (R1,) for half a period from Fix(R1) back to Fix(R1), (R2, R1) for a
    quarter period from Fix(R1) to Fix(R2); a reversible start has R1 x = x.
    Four pieces of data, fixed before the loop, make the layout:

    - the free coordinates of x: all of them, or the +1 coordinates of R1;
    - the closure rows: all of them, or the -1 coordinates of R2;
    - what y = phi_tau(x), tau = T / 2**len(refl), closes on: x itself, or
      x0, which is 0 off every fixed set and so on every closure row;
    - the phase rows: f(x_start) . (x - x_start) for the whole period, none
      for the reversible layouts, whose fixed sets meet the orbit at
      isolated points.

    The unknowns are the free coordinates and tau. The residual stacks the
    closure rows, the level offsets of ``constraints + (integral,)`` and the
    phase rows; its Jacobian rows are the derivatives of its entries. Each
    iteration integrates once and evaluates the residual once, and the
    returned orbit reports its residuals from that evaluation. Since
    phi_t(R z) = R phi_-t(z), each reflection R doubles the time
    integrated: with Phi the matrix over s, phi_2s(x) = R x +
    R Phi^-1 (R p - p) to first order in the distance of p = phi_s(x) from
    Fix(R), and Phi(2s) = R Phi^-1 R Phi. Reflecting in each of ``refl`` in
    turn gives the monodromy and phi_T(x) - x: the closure reported, and
    checked entry by entry with the residual.

    The solve ends when every entry is below ``tol_orbit``, after
    ``max_iter`` steps, or when the period leaves [0.1, 10] x t0,
    t0 = 2 pi / omega, which is checked before every integration, the first
    included: a start far out of the window costs no integration over it.
    """
    bundle = problem.bundle
    settings = problem.settings
    f = bundle.field
    n = bundle.dimension
    t0 = 2.0 * math.pi / problem.omega
    quantities = bundle.constraints + (bundle.integral,)
    targets = [q.value(problem.equilibrium) for q in quantities]
    targets[-1] += problem.epsilon**2
    m = len(quantities)
    if refl:  # the closure is y - closes_on @ x; phase_dirs are the phase rows
        free, rows = refl[-1] > 0, refl[0] < 0
        closes_on, phase_dirs = np.zeros((n, n)), np.empty((0, n))
    else:
        free = rows = np.full(n, True)
        closes_on, phase_dirs = np.eye(n), f(x)[None]
    n_close = rows.sum()
    x_start = x
    span = T / 2 ** len(refl)  # the time integrated
    last = None

    for iteration in range(settings.max_iter + 1):
        if not np.isfinite(T) or T < 0.1 * t0 or T > 10.0 * t0:
            raise OrbitSolveError(
                f"period collapsed: T = {T:.6g} wandered outside [0.1, 10] x {t0:.6g}",
                last_residual=last,
            )
        try:
            end, mono = flow_with_monodromy(f, x, span, settings.ode)
        except IntegrationError as exc:
            raise OrbitSolveError(f"integration failed during shooting: {exc}") from exc
        levels = np.array([q.value(x) - c for q, c in zip(quantities, targets)])
        phase = [float(d @ (x - x_start)) for d in phase_dirs]
        gap = end - closes_on @ x
        residual = np.concatenate((gap[rows], levels, phase))
        whole = mono  # phi_2s(x) - R x and Phi(2s) after each reflection
        for r in refl:  # R1 - I annihilates R2 x, on Fix(R1) with x
            gap = r * np.linalg.solve(whole, (r - 1.0) * gap)
            whole = r[:, None] * np.linalg.solve(whole, r[:, None] * whole)
        last = float(np.max(np.abs(np.concatenate((residual, gap)))))
        if last < settings.tol_orbit:
            return PeriodicOrbit(
                point=x.copy(),
                period=float(T),
                closure_residual=float(np.linalg.norm(gap)),
                constraint_residuals={
                    q.name: float(abs(r)) for q, r in zip(bundle.constraints, levels)
                },
                level_residual=float(abs(levels[-1])),
                floquet_multipliers=_floquet_multipliers(whole),
                iterations=iteration,
                epsilon=problem.epsilon,
                omega_ref=problem.omega,
            )
        if iteration == settings.max_iter:
            break

        jac = np.zeros((n_close + m + len(phase_dirs), free.sum() + 1))
        jac[:n_close, :-1] = (mono - closes_on)[np.ix_(rows, free)]
        jac[:n_close, -1] = f(end)[rows]
        for i, q in enumerate(quantities):
            jac[n_close + i, :-1] = q.gradient(x)[free]
        jac[n_close + m :, :-1] = phase_dirs[:, free]

        step = np.linalg.lstsq(jac, -residual, rcond=settings.svd_cutoff)[0]
        x = x.copy()
        x[free] += step[:-1]
        span = span + step[-1]
        T = span * 2 ** len(refl)
        if not np.all(np.isfinite(x)):
            raise OrbitSolveError("iterate became non-finite", last_residual=last)

    raise OrbitSolveError(
        f"no convergence after {settings.max_iter} iterations "
        f"(last residual {last:.3e})",
        last_residual=last,
    )


def _floquet_multipliers(mono: np.ndarray) -> np.ndarray:
    """Eigenvalues of the monodromy, farthest from 1 first.

    Ties, such as a complex-conjugate pair, go by descending imaginary part,
    so the order is fixed by the values and not by ``eigvals``' round-off,
    and a nontrivial pair leads.
    """
    mu = np.linalg.eigvals(mono)
    return mu[np.lexsort((-mu.imag, -np.abs(mu - 1.0)))]


def continue_family(problem: OrbitProblem, epsilons) -> OrbitFamily:
    """Solve a list of offsets in ascending order, warm-starting each one.

    ``epsilons`` must be positive and ascending. Every row is shot in the
    layout of :func:`_reflections`, chosen once per call: a quarter period,
    half a period when the family has no R2, or the whole period when the
    bundle has no reversor at x0. The first offset starts from
    :func:`_symmetric_guess` on Fix(R1), or from :func:`initial_guess`
    without a reversor, with T0 = 2 pi / omega, and is rescued as a cold
    :func:`solve_orbit` is. Each later offset starts once from
    :func:`_predict`: the point and period interpolated through up to the
    last four converged rows, which with one row is the previous orbit
    scaled out from the equilibrium by the eps ratio. A repeated offset is
    solved again from its twin. Failed rows are recorded and skipped; the
    call raises only when no offset converges.
    """
    eps_list = [float(e) for e in epsilons]
    if not eps_list:
        raise ValueError("epsilons must be nonempty")
    if not all(0.0 < e < math.inf for e in eps_list):
        raise ValueError("epsilons must be positive and finite")
    if sorted(eps_list) != eps_list:
        raise ValueError("epsilons must be sorted ascending")

    x0 = problem.equilibrium
    t0 = 2.0 * math.pi / problem.omega
    refl = _reflections(problem)
    rows: list[tuple[float, PeriodicOrbit]] = []
    failures: dict[float, str] = {}
    for eps in eps_list:
        sub = replace(problem, epsilon=eps)
        try:
            if rows:
                orbit = _shoot(sub, *_predict(rows, eps, x0, t0), refl)
            else:
                seed = _symmetric_guess(sub, refl[-1]) if refl else initial_guess(sub)[0]
                orbit = _rescued(sub, seed, t0, refl)
        except (OrbitSolveError, EigenplaneDegenerate) as exc:
            failures[eps] = str(exc)
            continue
        rows.append((eps, orbit))

    if not rows:
        raise OrbitSolveError(
            f"no epsilon converged out of {eps_list}; last error: {failures[eps_list[-1]]}"
        )
    return OrbitFamily(tuple(rows), problem.omega, failures)


def _lagrange_weights(nodes, s: float) -> list[float]:
    """Weights w with p(s) = sum_i w_i y_i for the polynomial p through the
    points (nodes_i, y_i); the nodes must be distinct."""
    weights = []
    for i, a in enumerate(nodes):
        w = 1.0
        for j, b in enumerate(nodes):
            if j != i:
                w *= (s - b) / (a - b)
        weights.append(w)
    return weights


def _predict(rows, eps: float, x0: np.ndarray, t0: float) -> tuple[np.ndarray, float]:
    """Start of the row at eps, interpolated from the converged rows below it.

    The family leaves x0 linearly and its period t0 = 2 pi / omega
    quadratically in eps, so u = (x - x0) / eps is interpolated in eps
    through the last q <= PREDICTOR_ROWS rows of distinct eps, and T in
    eps^2 through the same rows and (0, t0). q is the largest whose weights
    at eps sum in absolute value to at most 2^q - 1, their sum one step past
    q equally spaced rows: a far step from clustered rows falls back towards
    q = 1, the previous orbit scaled by the eps ratio. Rows on Fix(R) give a
    start on Fix(R), a linear space through x0.
    """
    nodes = []  # one row per eps, newest first; rows ascend, so twins are adjacent
    for e, orbit in reversed(rows):
        if not nodes or e != nodes[-1][0]:
            nodes.append((e, orbit))
            if len(nodes) == PREDICTOR_ROWS:
                break
    for q in range(len(nodes), 0, -1):
        w = _lagrange_weights([e for e, _ in nodes[:q]], eps)
        # the slack admits rungs equally spaced up to round-off
        if sum(abs(v) for v in w) <= (2**q - 1) * (1.0 + 1e-9):
            break
    nodes = nodes[:q]
    u = sum(wi * (orbit.point - x0) / e for wi, (e, orbit) in zip(w, nodes))
    w = _lagrange_weights([0.0] + [e * e for e, _ in nodes], eps * eps)
    T = w[0] * t0 + sum(wi * orbit.period for wi, (_, orbit) in zip(w[1:], nodes))
    return x0 + eps * u, T


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
