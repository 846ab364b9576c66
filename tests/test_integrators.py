import io
import math
import re

import numpy as np
import pytest
from scipy.linalg import expm

import porbit as pb
from porbit.poly import Polynomial, PolynomialVectorField

from oracles import dp5_monodromy, dp5_step, rk4_fixed

HARMONIC = PolynomialVectorField.linear([[0.0, 1.0], [-1.0, 0.0]])
TWO_PI = 2.0 * np.pi


def test_harmonic_round_trip():
    traj = pb.integrate(HARMONIC, [1.0, 0.0], TWO_PI)
    assert np.max(np.abs(traj.states[-1] - [1.0, 0.0])) < 1e-9
    assert traj.times[-1] == pytest.approx(TWO_PI, abs=0.0)


def test_flow_half_period():
    end = pb.flow(HARMONIC, [1.0, 0.0], np.pi)
    assert np.max(np.abs(end - [-1.0, 0.0])) < 1e-9


def test_equilibrium_is_fixed_exactly(rigid_bundle, rigid_e1):
    end = pb.flow(rigid_bundle.field, rigid_e1, 100.0)
    np.testing.assert_array_equal(end, rigid_e1)


def test_trajectory_invariants(rigid_bundle, rigid_e1):
    x0 = rigid_e1 + np.array([0.0, 0.05, 0.0])
    traj = pb.integrate(rigid_bundle.field, x0, 10.0)
    np.testing.assert_array_equal(traj.states[0], x0)
    assert np.all(np.diff(traj.times) > 0)
    assert np.all(np.isfinite(traj.states))
    assert traj.stats.accepted == len(traj.times) - 1


def test_rigid_conservation_along_trajectory(rigid_bundle, rigid_e1):
    x0 = rigid_e1 + np.array([0.0, 0.05, 0.0])
    traj = pb.integrate(rigid_bundle.field, x0, 10.0)
    drifts = dict(pb.drift_report(traj, rigid_bundle.all_quantities()))
    assert drifts["C_alpha"] < 1e-10
    assert drifts["F"] < 1e-10


def test_clebsch_conservation_through_flow(clebsch_bundle, clebsch_e1):
    x0 = clebsch_e1 + np.array([0.0, 0.03, 0.02, 0.0, 0.02, -0.01])
    traj = pb.integrate(clebsch_bundle.field, x0, 5.0)
    for name, drift in pb.drift_report(traj, clebsch_bundle.all_quantities()):
        assert drift < 1e-10, name


def test_monodromy_matches_matrix_exponential():
    a = np.array([[0.0, 1.0, 0.2], [-1.0, 0.0, 0.0], [0.1, 0.0, -0.3]])
    field = PolynomialVectorField.linear(a)
    for t_end in (0.7, 1.7, 3.0):
        m = pb.monodromy(field, [0.3, -0.2, 0.1], t_end)
        assert np.max(np.abs(m - expm(t_end * a))) < 1e-8


def test_monodromy_at_zero_time_is_identity(rigid_bundle, rigid_e1):
    np.testing.assert_array_equal(pb.monodromy(rigid_bundle.field, rigid_e1, 0.0), np.eye(3))


def test_monodromy_gradient_covariance(rigid_bundle, rigid_e1):
    # Q(phi_T(x)) = Q(x) for conserved Q, so by the chain rule
    # grad Q(phi_T(x))^T M(T) = grad Q(x)^T
    x = rigid_e1 + np.array([0.0, 0.08, -0.03])
    t_end = 3.7
    x_end, m = pb.flow_with_monodromy(rigid_bundle.field, x, t_end)
    for q in rigid_bundle.all_quantities():
        lhs = pb.gradient_exact(q, x_end) @ m
        rhs = pb.gradient_exact(q, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-6, q.name


# x' = y, y' = -x - x^3 conserves H = (x^2 + y^2) / 2 + x^4 / 4
DUFFING = PolynomialVectorField.from_terms(2, [[(1.0, (0, 1))], [(-1.0, (1, 0)), (-1.0, (3, 0))]])
DUFFING_H = Polynomial(2, [(0.5, (2, 0)), (0.5, (0, 2)), (0.25, (4, 0))])


def test_taylor_monodromy_matches_tight_dp5_over_a_clebsch_period(clebsch_bundle, clebsch_e1):
    problem = pb.orbit_problem(clebsch_bundle, clebsch_e1, np.sqrt(2.0), 0.2)
    x, period = pb.initial_guess(problem)
    x_ref, m_ref = dp5_monodromy(clebsch_bundle.field, x, period, 1e-14)
    x_end, m = pb.flow_with_monodromy(clebsch_bundle.field, x, period)
    assert np.max(np.abs(x_end - x_ref)) < 1e-12
    assert np.max(np.abs(m - m_ref)) < 1e-10


def test_cubic_field_monodromy_gradient_covariance():
    x = np.array([0.9, -0.4])
    x_end, m = pb.flow_with_monodromy(DUFFING, x, 7.3)
    assert abs(DUFFING_H.evaluate(x_end) - DUFFING_H.evaluate(x)) < 1e-12
    lhs = pb.gradient_exact(DUFFING_H, x_end) @ m
    assert np.max(np.abs(lhs - pb.gradient_exact(DUFFING_H, x))) < 1e-9


# every degree from 0 to 3 is nonzero, so each branch of the jet recursion runs
MIXED_DEGREES = PolynomialVectorField.from_terms(
    3,
    [
        [(0.2, (0, 0, 0)), (-1.0, (0, 1, 0)), (0.3, (1, 0, 1)), (-0.2, (3, 0, 0))],
        [(-0.1, (0, 0, 0)), (1.0, (1, 0, 0)), (0.4, (0, 1, 1)), (-0.3, (0, 3, 0)),
         (0.1, (1, 1, 1))],
        [(0.5, (0, 0, 0)), (-0.5, (0, 0, 1)), (-0.25, (1, 1, 0)), (-0.1, (0, 0, 3))],
    ],
)


@pytest.mark.parametrize("t_end", [3.0, -3.0])
def test_taylor_monodromy_matches_tight_dp5_on_every_degree(t_end):
    assert all(a.any() for a in MIXED_DEGREES.coefficient_arrays())
    x = np.array([0.6, -0.3, 0.4])
    x_ref, m_ref = dp5_monodromy(MIXED_DEGREES, x, t_end, 1e-14)
    x_end, m = pb.flow_with_monodromy(MIXED_DEGREES, x, t_end)
    assert np.max(np.abs(x_end - x_ref)) < 1e-12
    assert np.max(np.abs(m - m_ref)) < 1e-10


@pytest.mark.parametrize("t_end", [2.7, -2.7])
def test_affine_flow_and_monodromy_match_the_closed_form(t_end):
    # x' = b + A x with A the rotation generator at rate w:
    # x(t) = E x0 + A^-1 (E - I) b and Phi(t) = E, E = exp(A t)
    w, b, x0 = 1.3, np.array([0.3, -0.2]), np.array([0.5, 0.1])
    field = PolynomialVectorField.from_terms(
        2, [[(b[0], (0, 0)), (-w, (0, 1))], [(b[1], (0, 0)), (w, (1, 0))]]
    )
    a = np.array([[0.0, -w], [w, 0.0]])
    c, s = math.cos(w * t_end), math.sin(w * t_end)
    e = np.array([[c, -s], [s, c]])
    x_end, m = pb.flow_with_monodromy(field, x0, t_end)
    assert np.max(np.abs(x_end - (e @ x0 + np.linalg.solve(a, (e - np.eye(2)) @ b)))) < 1e-13
    assert np.max(np.abs(m - e)) < 1e-13


def test_reversed_monodromy_inverts_the_forward_one(rigid_bundle, rigid_e1):
    x = rigid_e1 + np.array([0.0, 0.08, -0.03])
    x_end, m_forward = pb.flow_with_monodromy(rigid_bundle.field, x, 3.7)
    x_back, m_backward = pb.flow_with_monodromy(rigid_bundle.field, x_end, -3.7)
    assert np.max(np.abs(x_back - x)) < 1e-11
    assert np.max(np.abs(m_backward - np.linalg.inv(m_forward))) < 1e-9


def test_flow_with_monodromy_raises_on_blowup_and_step_budget(rigid_bundle, rigid_e1):
    field = PolynomialVectorField([Polynomial(1, [(1.0, (2,))])])
    with pytest.raises(pb.IntegrationError):
        pb.flow_with_monodromy(field, [1.0], 2.0)
    x = rigid_e1 + np.array([0.0, 0.05, 0.0])
    with pytest.raises(pb.IntegrationError, match="max steps"):
        pb.flow_with_monodromy(rigid_bundle.field, x, TWO_PI, pb.ToleranceSettings(max_steps=1))


def _reversal_cases(rigid_bundle, rigid_e1, clebsch_bundle, clebsch_e1):
    """(field, the field with negated terms, a point) on both built-ins."""
    for field, x in (
        (rigid_bundle.field, rigid_e1 + np.array([0.0, 0.05, 0.02])),
        (clebsch_bundle.field, clebsch_e1 + np.array([0.0, 0.03, 0.02, 0.0, 0.02, -0.01])),
    ):
        yield field, PolynomialVectorField([-p for p in field.components]), x


def test_reversed_flow_equals_the_negated_field_flow(
    rigid_bundle, rigid_e1, clebsch_bundle, clebsch_e1
):
    # round-to-nearest is symmetric in sign, so this holds bit for bit
    for field, negated, x in _reversal_cases(rigid_bundle, rigid_e1, clebsch_bundle, clebsch_e1):
        np.testing.assert_array_equal(pb.flow(field, x, -2.3), pb.flow(negated, x, 2.3))


def test_reversed_monodromy_equals_the_negated_field_monodromy(
    rigid_bundle, rigid_e1, clebsch_bundle, clebsch_e1
):
    for field, negated, x in _reversal_cases(rigid_bundle, rigid_e1, clebsch_bundle, clebsch_e1):
        end, m = pb.flow_with_monodromy(field, x, -2.3)
        end_ref, m_ref = pb.flow_with_monodromy(negated, x, 2.3)
        np.testing.assert_array_equal(end, end_ref)
        np.testing.assert_array_equal(m, m_ref)


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [pb.integrate, pb.flow, pb.flow_with_monodromy])
def test_non_finite_time_is_rejected(entry, T):
    with pytest.raises(ValueError, match="finite"):
        entry(HARMONIC, [1.0, 0.0], T)


def test_order_scaling_on_harmonic_oracle():
    def final_err(tol):
        settings = pb.ToleranceSettings(abs_tol=tol, rel_tol=tol)
        end = pb.flow(HARMONIC, [1.0, 0.0], TWO_PI, settings)
        return float(np.linalg.norm(end - np.array([1.0, 0.0])))

    ratio = final_err(1e-6) / final_err(1e-6 / 32.0)
    assert 16.0 <= ratio <= 64.0


def test_time_reversibility(rigid_bundle, rigid_e1):
    settings = pb.ToleranceSettings(abs_tol=1e-10, rel_tol=1e-10)
    x0 = rigid_e1 + np.array([0.0, 0.05, 0.0])
    there = pb.flow(rigid_bundle.field, x0, 7.3, settings)
    back = pb.flow(rigid_bundle.field, there, -7.3, settings)
    assert np.max(np.abs(back - x0)) < 10 * 1e-9


def test_loose_tolerance_is_detected_by_drift(rigid_bundle, rigid_e1):
    x0 = rigid_e1 + np.array([0.0, 0.05, 0.0])
    loose = pb.ToleranceSettings(abs_tol=1e-3, rel_tol=1e-3)
    traj = pb.integrate(rigid_bundle.field, x0, 50.0, loose)
    drifts = dict(pb.drift_report(traj, rigid_bundle.all_quantities()))
    assert max(drifts.values()) > 1e-6


def test_equilibrium_drift_is_zero(rigid_bundle, rigid_e1):
    traj = pb.integrate(rigid_bundle.field, rigid_e1, 5.0)
    for _, drift in pb.drift_report(traj, rigid_bundle.all_quantities()):
        assert drift == 0.0


def test_max_steps_exceeded():
    settings = pb.ToleranceSettings(max_steps=5)
    with pytest.raises(pb.IntegrationError, match="max steps"):
        pb.integrate(HARMONIC, [1.0, 0.0], TWO_PI, settings)


def test_step_underflow():
    settings = pb.ToleranceSettings(h_min=0.5, h_init=0.5, h_max=1.0)
    with pytest.raises(pb.IntegrationError, match="underflow"):
        pb.integrate(HARMONIC, [1.0, 0.0], TWO_PI, settings)


def test_blowup_raises():
    # dx/dt = x^2 from 1 escapes at t = 1
    field = PolynomialVectorField([Polynomial(1, [(1.0, (2,))])])
    with pytest.raises(pb.IntegrationError):
        pb.flow(field, [1.0], 2.0)


# x' = x^3 from x0 escapes at t = 1 / (2 x0^2)
CUBIC = PolynomialVectorField([Polynomial(1, [(1.0, (3,))])])


@pytest.mark.parametrize("entry", [pb.integrate, pb.flow])
@pytest.mark.parametrize(
    "x0, h_init, message",
    [
        # (f0 / scale)**2 overflows, so the starting step is 0
        (1e90, None, "step underflow: h = 0.000e+00 at t = 0"),
        (1e100, None, "step underflow: h = 0.000e+00 at t = 0"),
        # every stage power overflows; each attempt is a rejected step
        (1e100, 1.0, "step underflow: h = 9.257e-14 at t = 0"),
    ],
)
def test_overflow_ends_in_step_underflow(entry, x0, h_init, message):
    with pytest.raises(pb.IntegrationError, match=re.escape(message)):
        entry(CUBIC, [x0], 1.0, pb.ToleranceSettings(h_init=h_init))


def test_rhs_evals_count_six_per_attempted_step():
    traj = pb.integrate(HARMONIC, [1.0, 0.0], TWO_PI)
    stats = traj.stats
    assert stats.rhs_evals == 2 + 6 * (stats.accepted + stats.rejected)
    traj = pb.integrate(HARMONIC, [1.0, 0.0], TWO_PI, pb.ToleranceSettings(h_init=1.0))
    stats = traj.stats
    assert stats.rejected > 0
    assert stats.rhs_evals == 1 + 6 * (stats.accepted + stats.rejected)


# a field with constant and linear terms next to a quadratic one
AFFINE = PolynomialVectorField.from_terms(
    3,
    [
        [(0.5, (0, 0, 0)), (-1.0, (0, 1, 0))],
        [(1.0, (1, 0, 0)), (0.25, (0, 0, 1)), (-0.75, (1, 1, 0))],
        [(-0.3, (0, 0, 0)), (2.0, (0, 0, 1))],
    ],
)


@pytest.mark.parametrize("backwards", [False, True])
@pytest.mark.parametrize("case", ["rigid", "clebsch", "duffing", "affine"])
def test_generated_step_matches_numpy_stages(
    case, backwards, rigid_bundle, rigid_e1, clebsch_bundle, clebsch_e1
):
    field, y = {
        "rigid": (rigid_bundle.field, rigid_e1 + np.array([0.0, 0.05, -0.03])),
        "clebsch": (
            clebsch_bundle.field,
            clebsch_e1 + np.array([0.0, 0.03, 0.02, 0.0, 0.02, -0.01]),
        ),
        "duffing": (DUFFING, np.array([0.9, -0.4])),
        "affine": (AFFINE, np.array([0.3, -1.2, 0.7])),
    }[case]
    k1 = field(y)
    step = field.dp5_step()
    for h in (0.01, 0.05, 0.4):
        h = -h if backwards else h
        y_new, k_new, err = step(y.tolist(), k1.tolist(), h, 1e-12, 1e-12)
        y_ref, k_ref, err_ref, err_size = dp5_step(field, y, k1, h, 1e-12, 1e-12)
        assert np.max(np.abs(np.subtract(y_new, y_ref))) <= 1e-14 * np.max(np.abs(y_ref))
        assert np.max(np.abs(np.subtract(k_new, k_ref))) <= 1e-14 * np.max(np.abs(k_ref))
        assert abs(err - err_ref) <= 1e-14 * err_size


def test_settings_validation():
    with pytest.raises(ValueError):
        pb.ToleranceSettings(abs_tol=0.0)
    for name in ("abs_tol", "rel_tol", "h_min", "h_max"):
        with pytest.raises(ValueError):
            pb.ToleranceSettings(**{name: math.nan})
    for name in ("abs_tol", "rel_tol"):
        with pytest.raises(ValueError):
            pb.ToleranceSettings(**{name: math.inf})
    assert pb.ToleranceSettings(h_max=math.inf).h_max == math.inf
    with pytest.raises(ValueError):
        pb.ToleranceSettings(h_init=1.0, h_max=0.5)
    with pytest.raises(ValueError):
        pb.integrate(HARMONIC, [1.0, 0.0], -1.0)


def test_rk4_debug_path_tracks_adaptive():
    coarse = rk4_fixed(HARMONIC, [1.0, 0.0], TWO_PI, 2000)
    assert np.max(np.abs(coarse.states[-1] - [1.0, 0.0])) < 1e-9
    assert coarse.stats.accepted == 2000


def test_csv_export(rigid_bundle, rigid_e1):
    traj = pb.integrate(rigid_bundle.field, rigid_e1 + np.array([0.0, 0.05, 0.0]), 1.0)
    buffer = io.StringIO()
    traj.to_csv(buffer)
    lines = buffer.getvalue().strip().split("\n")
    assert lines[0] == "t,x1,x2,x3"
    assert len(lines) == len(traj.times) + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    np.testing.assert_array_equal(first[1:], traj.states[0])
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(rows, np.column_stack((traj.times, traj.states)))
