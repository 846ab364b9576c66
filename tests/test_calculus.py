import numpy as np
import pytest
from hypothesis import given, settings

import porbit as pb
from porbit.poly import Polynomial, PolynomialVectorField

from conftest import fields_and_points, quiet_rigid_body
from oracles import (
    gradient_fd,
    gradient_terms,
    hessian_fd,
    hessian_terms,
    jacobian_fd,
    jacobian_terms,
)


def test_rigid_jacobian_at_e1_is_exact(rigid_bundle, rigid_e1):
    jac = pb.jacobian_exact(rigid_bundle.field, rigid_e1)
    # a2*M = -1 and (a3 - l)*M = 1; the first row is identically zero there
    expected = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(jac, expected)


def test_clebsch_jacobian_at_e1_entries(clebsch_bundle, clebsch_e1):
    jac = pb.jacobian_exact(clebsch_bundle.field, clebsch_e1)
    expected = np.zeros((6, 6))
    expected[1, 5] = -1.0  # d(x2dot)/d(p3) = -x1
    expected[2, 4] = 1.0   # d(x3dot)/d(p2) = x1
    expected[4, 2] = -2.0  # d(p2dot)/d(x3) = (a1 - a3) M
    expected[5, 1] = 1.0   # d(p3dot)/d(x2) = (a2 - a1) M
    np.testing.assert_array_equal(jac, expected)


def test_linear_field_jacobian_is_the_matrix():
    a = np.array([[0.3, -1.2, 0.0], [2.0, 0.1, -0.4], [0.0, 0.7, -0.9]])
    field = PolynomialVectorField.linear(a)
    rng = np.random.default_rng(3)
    for _ in range(5):
        np.testing.assert_array_equal(pb.jacobian_exact(field, rng.uniform(-2, 2, 3)), a)


def test_constant_field_fd_jacobian_is_zero():
    field = PolynomialVectorField([Polynomial.constant(2, 1.5), Polynomial.constant(2, -0.5)])
    for h in (1e-3, 1e-5, 1e-7):
        np.testing.assert_allclose(jacobian_fd(field, [0.2, 0.4], h), np.zeros((2, 2)), atol=1e-9)


def test_fd_rejects_nonpositive_step(rigid_bundle):
    with pytest.raises(ValueError):
        jacobian_fd(rigid_bundle.field, [1.0, 0.0, 0.0], h=0.0)


@pytest.mark.parametrize("builder,dim", [("rigid", 3), ("clebsch", 6)])
def test_fd_agrees_with_exact_at_random_points(builder, dim, rigid_bundle, clebsch_bundle):
    bundle = rigid_bundle if builder == "rigid" else clebsch_bundle
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(-2, 2, size=dim)
        exact = pb.jacobian_exact(bundle.field, x)
        approx = jacobian_fd(bundle.field, x, h=1e-5)
        worst = max(worst, float(np.max(np.abs(exact - approx))))
    assert worst < 1e-6


def test_fd_at_rigid_equilibrium_tight(rigid_bundle, rigid_e1):
    exact = pb.jacobian_exact(rigid_bundle.field, rigid_e1)
    approx = jacobian_fd(rigid_bundle.field, rigid_e1, h=1e-5)
    assert np.max(np.abs(exact - approx)) < 1e-8


def test_casimir_gradient_and_hessian(rigid_bundle):
    casimir = rigid_bundle.constraints[0]  # alpha = 1/2 here
    np.testing.assert_allclose(pb.gradient_exact(casimir, [1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])
    np.testing.assert_allclose(
        pb.hessian_exact(casimir, [1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 2.0])
    )


def test_clebsch_pairing_gradient_and_hessian(clebsch_bundle):
    d = next(q for q in clebsch_bundle.constraints if q.name == "D")
    for m in (0.5, 1.0, 2.0):
        e1 = clebsch_bundle.equilibrium("e1", m)
        np.testing.assert_allclose(pb.gradient_exact(d, e1), [0, 0, 0, m, 0, 0])
    hess = pb.hessian_exact(d, np.zeros(6))
    expected = np.zeros((6, 6))
    for i in range(3):
        expected[i, i + 3] = expected[i + 3, i] = 1.0
    np.testing.assert_array_equal(hess, expected)


def test_pure_quadratic_gradient_vanishes_at_origin():
    q = Polynomial(3, [(2.0, (2, 0, 0)), (-1.0, (0, 1, 1))])
    np.testing.assert_array_equal(pb.gradient_exact(q, np.zeros(3)), np.zeros(3))


def test_hessian_is_bit_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(10):
        terms = [
            (rng.uniform(-2, 2), tuple(rng.integers(0, 3, size=4)))
            for _ in range(6)
        ]
        q = Polynomial(4, terms)
        h = pb.hessian_exact(q, rng.uniform(-1, 1, size=4))
        assert np.array_equal(h, h.T)


def test_gradient_and_hessian_fd_cross_checks(rigid_bundle, clebsch_bundle):
    rng = np.random.default_rng(9)
    quantities = list(rigid_bundle.all_quantities()) + list(clebsch_bundle.all_quantities())
    for q in quantities:
        n = q.polynomial.dimension
        for _ in range(10):
            x = rng.uniform(-2, 2, size=n)
            assert np.max(np.abs(pb.gradient_exact(q, x) - gradient_fd(q, x))) < 1e-6
            assert np.max(np.abs(pb.hessian_exact(q, x) - hessian_fd(q, x))) < 1e-5


def test_jacobian_row_is_component_gradient():
    bundle = quiet_rigid_body(a2=-0.5, a3=2.0, l=0.5)
    rng = np.random.default_rng(10)
    x = rng.uniform(-1, 1, size=3)
    jac = pb.jacobian_exact(bundle.field, x)
    for i, comp in enumerate(bundle.field.components):
        np.testing.assert_allclose(jac[i], pb.gradient_exact(comp, x), rtol=1e-14, atol=1e-14)


def _magnitude(p: Polynomial) -> Polynomial:
    """p with |coefficients|: evaluated at |x| it bounds the summands, which
    sets the round-off scale of any evaluation order."""
    return Polynomial(p.dimension, [(abs(c), e) for c, e in p.terms])


def _assert_round_off_close(got, want, scale):
    # the absolute floor only covers underflow to subnormals
    assert np.all(np.abs(got - want) <= 1e-13 * scale + 1e-300), (got, want, scale)


@given(fields_and_points())
@settings(max_examples=80, deadline=None)
def test_array_derivatives_match_term_wise_differentiation(case):
    field, q, x = case
    big = _magnitude(q)
    _assert_round_off_close(
        pb.gradient_exact(q, x), gradient_terms(q, x), gradient_terms(big, np.abs(x)))
    hess = pb.hessian_exact(q, x)
    assert np.array_equal(hess, hess.T)
    _assert_round_off_close(hess, hessian_terms(q, x), hessian_terms(big, np.abs(x)))
    big_field = PolynomialVectorField([_magnitude(p) for p in field.components])
    _assert_round_off_close(
        pb.jacobian_exact(field, x), jacobian_terms(field, x), jacobian_terms(big_field, np.abs(x)))
    _assert_round_off_close(
        field(x),
        np.array([p.evaluate(x) for p in field.components]),
        np.array([p.evaluate(np.abs(x)) for p in big_field.components]),
    )
