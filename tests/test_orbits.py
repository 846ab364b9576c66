import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import porbit as pb
from oracles import rotated_oscillator

TWO_PI = 2.0 * math.pi
ROOT2 = math.sqrt(2.0)


def rigid_reference_period(eps: float) -> float:
    """Independent oracle for the canonical rigid-body orbit period.

    On the level pair C_alpha = C_alpha(e1), F = eps^2 of the reference
    parameter set, eliminating m1 and m3 reduces the loop to a quadrature:
    T = 4 int_0^{pi/2} dphi / sqrt(1 - 2 eps^2 + eps^2 sin^2 phi).
    """
    value, _ = quad(
        lambda phi: 1.0 / math.sqrt(1.0 - 2.0 * eps**2 + eps**2 * math.sin(phi) ** 2),
        0.0,
        math.pi / 2.0,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return 4.0 * value


# -- seeding ------------------------------------------------------------------


def test_rigid_initial_guess_structure(rigid_bundle, rigid_e1):
    problem = pb.orbit_problem(rigid_bundle, rigid_e1, 1.0, 0.05)
    guess, t0 = pb.initial_guess(problem)
    assert t0 == pytest.approx(TWO_PI, rel=1e-15)
    assert guess[0] == pytest.approx(1.0, abs=1e-12)
    delta = guess - rigid_e1
    assert np.linalg.norm(delta[1:]) == pytest.approx(0.05, rel=1e-10)
    # the quadratic integral hits the offset exactly at the seed
    level = rigid_bundle.integral.value(guess) - rigid_bundle.integral.value(rigid_e1)
    assert level == pytest.approx(0.05**2, rel=1e-12)


def test_zero_offset_guess_is_the_equilibrium(rigid_bundle, rigid_e1):
    problem = pb.orbit_problem(rigid_bundle, rigid_e1, 1.0, 0.0)
    guess, t0 = pb.initial_guess(problem)
    np.testing.assert_array_equal(guess, rigid_e1)
    assert t0 == pytest.approx(TWO_PI)


def test_clebsch_guess_perturbs_the_right_plane(clebsch_bundle, clebsch_e1):
    problem = pb.orbit_problem(clebsch_bundle, clebsch_e1, ROOT2, 0.05)
    guess, _ = pb.initial_guess(problem)
    delta = np.abs(guess - clebsch_e1)
    # the +-i sqrt(2) pair couples x3 (index 2) and p2 (index 4)
    assert delta[[2, 4]].max() > 0.0
    assert delta[[0, 1, 3, 5]].max() < 1e-14


def test_eigenplane_invariance_residual(clebsch_bundle, clebsch_e1):
    problem = pb.orbit_problem(clebsch_bundle, clebsch_e1, 1.0, 0.05)
    u, v = problem.eigenplane
    jac = pb.jacobian_exact(clebsch_bundle.field, clebsch_e1)
    plane = np.column_stack((u, v))
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(jac @ plane - plane @ rotation)) < 1e-8
    assert np.linalg.matrix_rank(plane) == 2


def test_degenerate_plane_is_rejected(rigid_bundle, rigid_e1):
    # flipping the integral sign makes every in-plane direction decrease it
    flipped = pb.SystemBundle(
        "flipped",
        rigid_bundle.field,
        rigid_bundle.constraints,
        pb.ConservedQuantity("mF", rigid_bundle.integral.polynomial.scale(-1.0), "integral"),
        families=rigid_bundle.families,
    )
    problem = pb.orbit_problem(flipped, rigid_e1, 1.0, 0.05)
    with pytest.raises(pb.EigenplaneDegenerate):
        pb.initial_guess(problem)


# -- single solves ------------------------------------------------------------


def test_rigid_orbit_reference_case(rigid_family):
    eps, orbit = rigid_family.rows[0]
    assert eps == 0.05
    assert orbit.closure_residual < 1e-10
    assert orbit.constraint_residuals["C_alpha"] < 1e-12
    assert orbit.level_residual < 1e-11
    # period against the independent quadrature oracle
    assert orbit.period == pytest.approx(rigid_reference_period(0.05), abs=1e-8)


def test_rigid_period_oracle_across_offsets(rigid_family):
    for eps, orbit in rigid_family.rows:
        assert orbit.period == pytest.approx(rigid_reference_period(eps), abs=1e-7)


def test_clebsch_dual_families(clebsch_families):
    fast = clebsch_families[ROOT2].rows[0][1]
    slow = clebsch_families[1.0].rows[0][1]
    assert abs(fast.period - TWO_PI / ROOT2) < 0.01
    assert abs(slow.period - TWO_PI) < 0.01
    for orbit in (fast, slow):
        assert orbit.closure_residual < 1e-9
        # every residual component sits under the shooting tolerance
        assert orbit.constraint_residuals["C"] < 1e-10
        assert orbit.constraint_residuals["D"] < 1e-10


def test_clebsch_slow_family_direct_solve(clebsch_bundle, clebsch_e1):
    orbit = pb.solve_orbit(pb.orbit_problem(clebsch_bundle, clebsch_e1, 1.0, 0.05))
    assert abs(orbit.period - TWO_PI) < 0.01
    assert orbit.constraint_residuals["D"] < 1e-12


def test_zero_epsilon_is_rejected(rigid_bundle, rigid_e1):
    for eps in (0.0, math.nan, math.inf):
        problem = pb.orbit_problem(rigid_bundle, rigid_e1, 1.0, eps)
        with pytest.raises(ValueError):
            pb.solve_orbit(problem)


def test_closure_reverifies_at_tighter_tolerance(rigid_family, rigid_bundle):
    _, orbit = rigid_family.rows[0]
    tight = pb.ToleranceSettings().tightened(10.0)
    closure = np.linalg.norm(
        pb.flow(rigid_bundle.field, orbit.point, orbit.period, tight) - orbit.point
    )
    assert closure < 1e-9


def test_level_set_adherence_along_orbit(clebsch_families, clebsch_bundle, clebsch_e1):
    _, orbit = clebsch_families[1.0].rows[0]
    _, states = pb.sample_orbit(clebsch_bundle, orbit, 32)
    for q in clebsch_bundle.constraints:
        values = q.polynomial.evaluate_many(states)
        assert np.max(np.abs(values - q.value(clebsch_e1))) < 1e-9, q.name
    target = clebsch_bundle.integral.value(clebsch_e1) + orbit.epsilon**2
    values = clebsch_bundle.integral.polynomial.evaluate_many(states)
    assert np.max(np.abs(values - target)) < 1e-9


def test_trivial_floquet_multiplicity(rigid_family, clebsch_families):
    _, rigid_orbit = rigid_family.rows[0]
    # field direction + k constraints + the integral
    assert np.sum(np.abs(rigid_orbit.floquet_multipliers - 1.0) < 1e-4) >= 3
    for family in clebsch_families.values():
        _, orbit = family.rows[0]
        assert np.sum(np.abs(orbit.floquet_multipliers - 1.0) < 1e-4) >= 4


def test_field_direction_is_floquet_eigenvector(rigid_family, rigid_bundle):
    _, orbit = rigid_family.rows[0]
    m = pb.monodromy(rigid_bundle.field, orbit.point, orbit.period)
    direction = rigid_bundle.field(orbit.point)
    assert np.max(np.abs(m @ direction - direction)) < 1e-6


def test_seed_direction_robustness(rigid_bundle, rigid_e1):
    problem = pb.orbit_problem(rigid_bundle, rigid_e1, 1.0, 0.05)
    periods = [
        pb.solve_orbit(problem, seed_angle=2.0 * math.pi * j / 8.0).period
        for j in range(8)
    ]
    assert max(periods) - min(periods) < 1e-8


# -- continuation -------------------------------------------------------------


def test_family_rows_are_sorted_and_converging(rigid_family):
    assert rigid_family.epsilons() == [0.05, 0.1, 0.2]
    deviations = [abs(T - TWO_PI) for T in rigid_family.periods()]
    assert deviations[0] < deviations[1] < deviations[2]
    assert rigid_family.failures == {}


def test_quadratic_trend_ratios(rigid_family, clebsch_families):
    for family, t0 in (
        (rigid_family, TWO_PI),
        (clebsch_families[ROOT2], TWO_PI / ROOT2),
        (clebsch_families[1.0], TWO_PI),
    ):
        deviations = [abs(T - t0) for T in family.periods()]
        for small, large in zip(deviations, deviations[1:]):
            assert 2.5 <= large / small <= 6.0


def test_single_epsilon_family_matches_solo_solve(rigid_bundle, rigid_e1):
    problem = pb.orbit_problem(rigid_bundle, rigid_e1, 1.0, 0.05)
    family = pb.continue_family(problem, [0.05])
    solo = pb.solve_orbit(problem)
    assert len(family.rows) == 1
    assert family.rows[0][1].period == pytest.approx(solo.period, abs=1e-12)


def test_clebsch_fast_family_approaches_linear_period(clebsch_families):
    family = clebsch_families[ROOT2]
    periods = family.periods()
    assert abs(periods[0] - 4.442883) < 1e-2
    assert abs(periods[0] - TWO_PI / ROOT2) < abs(periods[-1] - TWO_PI / ROOT2)


def test_continue_family_validates_epsilons(rigid_bundle, rigid_e1):
    problem = pb.orbit_problem(rigid_bundle, rigid_e1, 1.0, 0.1)
    with pytest.raises(ValueError):
        pb.continue_family(problem, [])
    with pytest.raises(ValueError):
        pb.continue_family(problem, [0.1, 0.05])
    with pytest.raises(ValueError):
        pb.continue_family(problem, [-0.1, 0.05])
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            pb.continue_family(problem, [0.1, eps])


@pytest.mark.parametrize(
    "name, value",
    [
        ("tol_orbit", math.nan),
        ("tol_orbit", math.inf),
        ("tol_orbit", 0.0),
        ("svd_cutoff", -1e-10),
        ("svd_cutoff", math.nan),
        ("svd_cutoff", math.inf),
        ("max_iter", -1),
    ],
)
def test_solver_settings_validation(name, value):
    with pytest.raises(ValueError, match=name):
        pb.SolverSettings(**{name: value})


def test_solver_settings_edge_values_are_valid():
    settings = pb.SolverSettings(svd_cutoff=0.0, max_iter=0)
    assert (settings.svd_cutoff, settings.max_iter) == (0.0, 0)


def test_unsolvable_offset_is_recorded(rigid_bundle, rigid_e1):
    # F <= 1.5 on the whole constraint level here, so the offset 5^2 = 25 is
    # infeasible; the row must fail fast and be recorded, not abort the family
    settings = pb.SolverSettings(
        max_iter=6,
        two_segment_fallback=False,
        ode=pb.ToleranceSettings(abs_tol=1e-9, rel_tol=1e-9, max_steps=20_000),
    )
    problem = pb.orbit_problem(rigid_bundle, rigid_e1, 1.0, 0.05, settings)
    family = pb.continue_family(problem, [0.05, 5.0])
    assert [eps for eps, _ in family.rows] == [0.05]
    assert 5.0 in family.failures


def test_orbit_serialization_round_trip(rigid_family):
    _, orbit = rigid_family.rows[0]
    record = orbit.to_dict()
    assert record["period"] == orbit.period
    assert len(record["floquet_multipliers"]) == 3
    assert all(len(pair) == 2 for pair in record["floquet_multipliers"])
    assert record["constraint_residuals"]["C_alpha"] == orbit.constraint_residuals["C_alpha"]


def test_two_segment_fallback_recovers_a_collapsed_single_segment_solve(clebsch_bundle):
    # a slow-family seed high on the ladder, started a quarter turn round
    # the oscillation plane, where single shooting lets the period run
    # negative and the fallback's ladder of smaller offsets reaches the orbit
    M = 1.0290929531478712
    x0 = clebsch_bundle.equilibrium("e1", M)
    omega = pb.check_theorem(clebsch_bundle, x0).omegas[1]
    single_only = pb.SolverSettings(two_segment_fallback=False)
    problem = pb.orbit_problem(clebsch_bundle, x0, omega, 0.65 * M, single_only)
    with pytest.raises(pb.OrbitSolveError, match="period collapsed"):
        pb.solve_orbit(problem, seed_angle=math.pi / 2)
    orbit = pb.solve_orbit(replace(problem, settings=pb.SolverSettings()), seed_angle=math.pi / 2)
    assert orbit.used_fallback
    assert orbit.period * M == pytest.approx(9.495549558361105, rel=1e-8)


FAST_LADDER = [round(0.05 * i, 10) for i in range(1, 19)] + [0.95]


@pytest.fixture(scope="module")
def clebsch_fast_ladder(clebsch_bundle, clebsch_e1):
    """The fast Clebsch family up to 0.95 of its end at eps = 1 (M = 1)."""
    problem = pb.orbit_problem(clebsch_bundle, clebsch_e1, ROOT2, FAST_LADDER[-1])
    return problem, pb.continue_family(problem, FAST_LADDER)


def test_ascending_continuation_reaches_the_top_of_the_fast_family(clebsch_fast_ladder):
    _, family = clebsch_fast_ladder
    assert family.failures == {}
    assert family.epsilons() == FAST_LADDER
    assert not any(orbit.used_fallback for _, orbit in family.rows)


def test_cold_solve_at_the_top_rung_climbs_the_ladder(clebsch_fast_ladder):
    # the seed at eps = 0.95 lies far from the orbit: single shooting from it
    # fails, and the orbit is reached from below
    problem, family = clebsch_fast_ladder
    orbit = pb.solve_orbit(problem)
    assert orbit.used_fallback
    assert orbit.closure_residual <= problem.settings.tol_orbit
    assert orbit.period == pytest.approx(family.rows[-1][1].period, rel=1e-9)


@pytest.fixture
def fwm_calls(monkeypatch):
    """Counts the flow_with_monodromy calls made by the shooting from here on."""
    calls = [0]
    real = pb.orbits.flow_with_monodromy

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(pb.orbits, "flow_with_monodromy", counted)
    return calls


@pytest.mark.parametrize(
    "epsilons",
    [[0.1, 0.1, 0.2], [0.1, 0.2, 0.2, 0.3], [0.05, 0.1, 0.15, 0.15, 0.2]],
    ids=["first", "middle", "third"],
)
def test_a_repeated_epsilon_is_solved_again_as_its_twin(rigid_bundle, rigid_e1, epsilons):
    # the predictor interpolates through distinct eps only
    problem = pb.orbit_problem(rigid_bundle, rigid_e1, 1.0, epsilons[-1])
    family = pb.continue_family(problem, epsilons)
    assert family.failures == {}
    assert family.epsilons() == epsilons
    for (eps, orbit), (prev_eps, prev) in zip(family.rows[1:], family.rows):
        if eps == prev_eps:
            assert orbit.period == pytest.approx(prev.period, rel=0, abs=1e-12)
            np.testing.assert_allclose(orbit.point, prev.point, rtol=0, atol=1e-12)


def _ladder(end: float) -> list[float]:
    """The benchmark's rungs at M = 1: 0.05, 0.10, ... below 0.95 * end, then 0.95 * end."""
    top = 0.95 * end
    return [round(0.05 * i, 10) for i in range(1, 20) if 0.05 * i < top - 1e-9] + [top]


def _families(rigid_bundle, clebsch_bundle):
    """Bundle, omega and family end of the three families at M = 1, by name."""
    return {
        "rigid": (rigid_bundle, 1.0, 1.0 / ROOT2),
        "slow": (clebsch_bundle, 1.0, 1.0 / ROOT2),
        "fast": (clebsch_bundle, ROOT2, 1.0),
    }


def test_predicted_rows_take_fewer_than_two_iterations_on_average(rigid_bundle, clebsch_bundle):
    # the previous orbit scaled by the eps ratio took 2.77 on these ladders
    iterations = []
    for bundle, omega, end in _families(rigid_bundle, clebsch_bundle).values():
        rungs = _ladder(end)
        problem = pb.orbit_problem(bundle, bundle.equilibrium("e1", 1.0), omega, rungs[-1])
        family = pb.continue_family(problem, rungs)
        assert family.failures == {}
        iterations += [orbit.iterations for _, orbit in family.rows]
    assert sum(iterations) / len(iterations) < 2.0


IRREGULAR_LADDERS = {
    "coarse": [0.05, 0.3, 0.6],
    "clustered": [0.01, 0.011, 0.012, 0.013, 0.6],
    "uneven": [0.05, 0.07, 0.2, 0.21, 0.5, 0.52, 0.66],
}
# flow_with_monodromy calls of the scaled warm start on each ladder
SCALED_START_CALLS = {
    "rigid": {"coarse": 12, "clustered": 14, "uneven": 27},
    "slow": {"coarse": 14, "clustered": 15, "uneven": 28},
    "fast": {"coarse": 12, "clustered": 14, "uneven": 23},
}


@pytest.mark.parametrize("ladder", IRREGULAR_LADDERS)
@pytest.mark.parametrize("name", SCALED_START_CALLS)
def test_irregular_ladders_converge_in_no_more_integrations(
    rigid_bundle, clebsch_bundle, fwm_calls, name, ladder
):
    # the ladders scale with the family's end, eps_end * sqrt(2); the degree
    # guard keeps a far step from clustered rows near the scaled start
    bundle, omega, end = _families(rigid_bundle, clebsch_bundle)[name]
    rungs = [e * end * ROOT2 for e in IRREGULAR_LADDERS[ladder]]
    assert rungs[-1] < 0.95 * end
    problem = pb.orbit_problem(bundle, bundle.equilibrium("e1", 1.0), omega, rungs[-1])
    family = pb.continue_family(problem, rungs)
    assert family.failures == {}
    assert fwm_calls[0] <= SCALED_START_CALLS[name][ladder]
    if name == "rigid":
        for eps, T in zip(family.epsilons(), family.periods()):
            assert T == pytest.approx(rigid_reference_period(eps), rel=1e-10)


# -- resonance and failure messages ---------------------------------------------


@pytest.mark.parametrize(
    "theta, period",
    [(0.37, 6.1420978174), (0.0, 6.10956476)],
    ids=["rotated", "axis"],
)
def test_resonant_oscillator_converges_from_every_seed_angle(theta, period):
    # a double frequency: the seed plane is one LAPACK eigenvector pair of
    # the resonant eigenspace, and every direction in it reaches an orbit
    settings = pb.SolverSettings(two_segment_fallback=False)
    problem = pb.orbit_problem(rotated_oscillator(theta), np.zeros(4), 1.0, 0.2, settings)
    for j in range(8):
        orbit = pb.solve_orbit(problem, seed_angle=TWO_PI * j / 8)
        assert orbit.period == pytest.approx(period, rel=1e-8)
        assert orbit.closure_residual <= settings.tol_orbit


def _rigid_seed_solve(rigid_bundle, rigid_e1, eps, **settings):
    settings = pb.SolverSettings(two_segment_fallback=False, **settings)
    problem = pb.orbit_problem(rigid_bundle, rigid_e1, 1.0, eps, settings)
    with pytest.raises(pb.OrbitSolveError) as info:
        pb.solve_orbit(problem)
    return info.value


def test_infeasible_offset_fails_as_period_collapsed(rigid_bundle, rigid_e1):
    error = _rigid_seed_solve(rigid_bundle, rigid_e1, 5.0)
    assert str(error).startswith("period collapsed")
    assert error.last_residual == pytest.approx(22.899, rel=1e-4)


def test_ladder_rescue_past_the_family_end_fails_as_period_collapsed(rigid_bundle, rigid_e1):
    # the family ends at eps = 1/sqrt(2) here; the rescue's rungs 0.70 and
    # 0.75 fail, so its converged top rung at 0.8 is not the family's orbit
    problem = pb.orbit_problem(rigid_bundle, rigid_e1, 1.0, 0.8)
    assert problem.settings.two_segment_fallback
    with pytest.raises(pb.OrbitSolveError) as info:
        pb.solve_orbit(problem)
    assert str(info.value).startswith("period collapsed")


def test_ladder_rescue_at_eps_one_fails_as_period_collapsed(rigid_bundle, rigid_e1):
    # the rescue's predicted starts past the family's end leave the period
    # window, so it no longer returns a T = 6.28319549 that is not the family's
    problem = pb.orbit_problem(rigid_bundle, rigid_e1, 1.0, 1.0)
    with pytest.raises(pb.OrbitSolveError) as info:
        pb.solve_orbit(problem)
    assert str(info.value).startswith("period collapsed")


def test_an_infeasible_offset_fails_in_a_bounded_number_of_integrations(
    rigid_bundle, rigid_e1, fwm_calls
):
    # the seed solve and the rescue's rungs past the family's end; the period
    # window is checked before each integration, so a far predicted period
    # costs none (the scaled start took 60 calls)
    problem = pb.orbit_problem(rigid_bundle, rigid_e1, 1.0, 5.0)
    assert problem.settings.two_segment_fallback
    with pytest.raises(pb.OrbitSolveError) as info:
        pb.solve_orbit(problem)
    assert str(info.value).startswith("period collapsed")
    assert fwm_calls[0] <= 30


def test_iteration_limit_fails_as_no_convergence(rigid_bundle, rigid_e1):
    error = _rigid_seed_solve(rigid_bundle, rigid_e1, 0.3, max_iter=1)
    assert str(error).startswith("no convergence after 1 iterations")
    assert error.last_residual == pytest.approx(6.4516e-3, rel=1e-4)


def test_integrator_failure_is_reported_by_the_solve(rigid_bundle, rigid_e1):
    error = _rigid_seed_solve(rigid_bundle, rigid_e1, 0.3, ode=pb.ToleranceSettings(max_steps=2))
    assert str(error) == "integration failed during shooting: max steps exceeded (2)"
    assert error.last_residual is None


# -- reversible half-period shooting --------------------------------------------


def test_builtin_reversors_are_found_exactly(rigid_bundle, rigid_e1, clebsch_bundle, clebsch_e1):
    rigid = pb.reversors(rigid_bundle, rigid_e1)
    assert [s.tolist() for s in rigid] == [[1, 1, -1], [1, -1, 1]]
    clebsch = pb.reversors(clebsch_bundle, clebsch_e1)
    assert [s.tolist() for s in clebsch] == [[1, 1, -1, 1, 1, -1], [1, -1, 1, 1, -1, 1]]
    # (x, p) -> (x, -p) reverses the field but flips D = x . p
    flip_p = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    x = np.random.default_rng(3).normal(size=6)
    f = clebsch_bundle.field
    np.testing.assert_allclose(flip_p * f(flip_p * x), -f(x), rtol=0, atol=1e-14)
    d = clebsch_bundle.constraints[1]
    assert d.value(flip_p * x) == pytest.approx(-d.value(x))
    assert not any(np.array_equal(s, flip_p) for s in clebsch)


def _euler_bundle():
    """x' = x cross A x for a symmetric A with A e1 = e1 / 2 and a coupled
    (x2, x3) block. It keeps C = |x|^2 / 2 and, critical at e1, the integral
    I = (x.Ax - |x|^2 / 2) / 2, built by hand from the energy and C. The term
    x2^2 of f1 is even in every sign flip, so no sign matrix reverses f."""
    a = np.array([[0.5, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 2.0]])
    unit = [pb.Polynomial(3, [(1.0, tuple(int(i == j) for i in range(3)))]) for j in range(3)]
    ax = [sum((unit[k].scale(a[i, k]) for k in range(3) if a[i, k]), pb.Polynomial.zero(3))
          for i in range(3)]
    field = [unit[(i + 1) % 3] * ax[(i + 2) % 3] - unit[(i + 2) % 3] * ax[(i + 1) % 3]
             for i in range(3)]
    square = sum((u * u for u in unit), pb.Polynomial.zero(3))
    energy = sum((unit[i] * ax[i] for i in range(3)), pb.Polynomial.zero(3))
    return pb.SystemBundle(
        "euler",
        pb.PolynomialVectorField(field),
        [pb.ConservedQuantity("C", square.scale(0.5))],
        pb.ConservedQuantity("I", (energy - square.scale(a[0, 0])).scale(0.5), "integral"),
    )


def test_a_field_without_reversor_keeps_the_whole_period_layout():
    bundle = _euler_bundle()
    x0 = np.array([1.0, 0.0, 0.0])
    assert pb.reversors(bundle, x0) == []
    omega = pb.check_theorem(bundle, x0).omegas[0]
    assert omega == pytest.approx(math.sqrt(0.5), rel=1e-12)
    problem = pb.orbit_problem(bundle, x0, omega, 0.2)
    family = pb.continue_family(problem, [0.05, 0.1, 0.2])
    assert family.failures == {}
    # the first row is the cold whole-period solve, to the bit
    cold = pb.solve_orbit(replace(problem, epsilon=0.05))
    np.testing.assert_array_equal(family.rows[0][1].point, cold.point)
    assert family.rows[0][1].period == cold.period
    # periods of cold solves at each offset with tol_orbit = 1e-13 and ODE
    # tolerances 1e-14, an independent reference for the continued rows
    expected = [8.930616149277828, 9.07047359600949, 9.728473454062756]
    assert family.periods() == pytest.approx(expected, rel=1e-12)


def test_half_period_rows_lie_on_fix_r_and_match_the_quadrature_oracle(rigid_family):
    for eps, orbit in rigid_family.rows:
        assert orbit.point[2] == 0.0  # on Fix(diag(1, 1, -1))
        assert orbit.period == pytest.approx(rigid_reference_period(eps), abs=1e-8)


def test_closure_residual_is_the_fresh_whole_period_gap(
    rigid_family, rigid_bundle, clebsch_families, clebsch_bundle
):
    tol = pb.SolverSettings().tol_orbit
    families = [(rigid_bundle, rigid_family)]
    families += [(clebsch_bundle, family) for family in clebsch_families.values()]
    for bundle, family in families:
        for _, orbit in family.rows:
            end, _ = pb.flow_with_monodromy(bundle.field, orbit.point, orbit.period)
            gap = float(np.linalg.norm(end - orbit.point))
            assert abs(orbit.closure_residual - gap) <= tol


def test_floquet_multipliers_list_the_nontrivial_pair_first(clebsch_families):
    for family in clebsch_families.values():
        for _, orbit in family.rows:
            mu = orbit.floquet_multipliers
            distance = np.abs(mu - 1.0)
            assert np.all(distance[:2] >= 1e-4) and np.all(distance[2:] < 1e-4)
            assert np.all(np.diff(distance) <= 0.0)
            if mu[0].imag != 0.0:  # a conjugate pair: the upper one first
                assert mu[0].imag > 0.0 and mu[1] == np.conj(mu[0])


def test_nontrivial_floquet_multipliers_match_a_fresh_monodromy(clebsch_families, clebsch_bundle):
    def nontrivial(mu):
        pair = mu[np.argsort(np.abs(mu - 1.0))[-2:]]
        return sorted(pair, key=lambda z: (z.real, z.imag))

    for family in clebsch_families.values():
        for _, orbit in family.rows:
            assert np.all(orbit.point[[2, 5]] == 0.0)  # on Fix(diag(1, 1, -1, 1, 1, -1))
            fresh = np.linalg.eigvals(pb.monodromy(clebsch_bundle.field, orbit.point, orbit.period))
            got = nontrivial(orbit.floquet_multipliers)
            np.testing.assert_allclose(got, nontrivial(fresh), rtol=0, atol=1e-8)
