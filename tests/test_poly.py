import itertools

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import porbit as pb
from porbit.poly import Polynomial, PolynomialVectorField

from test_integrators import AFFINE, DUFFING


def to_sympy(p: Polynomial, symbols):
    expr = sp.Integer(0)
    for c, e in p.terms:
        term = sp.Float(c, 17)
        for s, k in zip(symbols, e):
            term *= s**k
        expr += term
    return expr


def random_poly(rng, dim, n_terms=4, max_deg=3) -> Polynomial:
    terms = []
    for _ in range(n_terms):
        exps = rng.integers(0, max_deg + 1, size=dim)
        terms.append((rng.uniform(-2, 2), tuple(exps)))
    return Polynomial(dim, terms)


def test_terms_merge_and_drop_zeros():
    p = Polynomial(2, [(1.5, (1, 0)), (2.5, (1, 0)), (3.0, (0, 2)), (-3.0, (0, 2))])
    assert p.terms == ((4.0, (1, 0)),)


def test_constructor_rejects_bad_terms():
    with pytest.raises(ValueError):
        Polynomial(2, [(1.0, (1, 0, 0))])
    with pytest.raises(ValueError):
        Polynomial(2, [(1.0, (-1, 0))])
    for coeff in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite coefficient in term"):
            Polynomial(2, [(1.0, (0, 1)), (coeff, (1, 0))])


def test_evaluate_against_sympy():
    rng = np.random.default_rng(7)
    xs = sp.symbols("x0 x1 x2")
    for _ in range(10):
        p = random_poly(rng, 3)
        expr = to_sympy(p, xs)
        point = rng.uniform(-1.5, 1.5, size=3)
        expected = float(expr.subs(dict(zip(xs, point))))
        assert p.evaluate(point) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_differentiate_against_sympy():
    rng = np.random.default_rng(8)
    xs = sp.symbols("x0 x1")
    for _ in range(10):
        p = random_poly(rng, 2)
        for i in range(2):
            dp = p.differentiate(i)
            expr = sp.diff(to_sympy(p, xs), xs[i])
            point = rng.uniform(-1, 1, size=2)
            expected = float(expr.subs(dict(zip(xs, point))))
            assert dp.evaluate(point) == pytest.approx(expected, rel=1e-12, abs=1e-12)


@given(
    st.lists(
        st.tuples(
            st.floats(-3, 3, allow_nan=False),
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
        ),
        min_size=1,
        max_size=4,
    ),
    st.lists(
        st.tuples(
            st.floats(-3, 3, allow_nan=False),
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
        ),
        min_size=1,
        max_size=4,
    ),
    st.floats(-1.2, 1.2),
    st.floats(-1.2, 1.2),
)
@settings(max_examples=60, deadline=None)
def test_product_evaluates_pointwise(terms_a, terms_b, x, y):
    a = Polynomial(2, terms_a)
    b = Polynomial(2, terms_b)
    point = np.array([x, y])
    lhs = (a * b).evaluate(point)
    rhs = a.evaluate(point) * b.evaluate(point)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@given(
    st.lists(
        st.tuples(
            st.floats(-3, 3, allow_nan=False),
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
        ),
        min_size=1,
        max_size=4,
    ),
    st.lists(
        st.tuples(
            st.floats(-3, 3, allow_nan=False),
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=40, deadline=None)
def test_product_rule(terms_a, terms_b):
    a = Polynomial(2, terms_a)
    b = Polynomial(2, terms_b)
    lhs = (a * b).differentiate(0)
    rhs = a.differentiate(0) * b + a * b.differentiate(0)
    assert (lhs - rhs).max_abs_coeff() <= 1e-9


# a field whose middle component is the zero polynomial
ZERO_COMPONENT = PolynomialVectorField.from_terms(
    3, [[(1.0, (0, 1, 0))], [], [(-2.0, (1, 0, 1)), (0.5, (0, 0, 2))]]
)


@pytest.mark.parametrize("case", ["rigid", "clebsch", "duffing", "affine", "zero_component"])
def test_compiled_matches_evaluate(case, rigid_bundle, clebsch_bundle):
    field = {
        "rigid": rigid_bundle.field,
        "clebsch": clebsch_bundle.field,
        "duffing": DUFFING,
        "affine": AFFINE,
        "zero_component": ZERO_COMPONENT,
    }[case]
    rng = np.random.default_rng(11)
    f = field.compiled()
    for _ in range(20):
        x = rng.uniform(-2, 2, size=field.dimension)
        direct = np.array([p.evaluate(x) for p in field.components])
        np.testing.assert_allclose(f(x), direct, rtol=1e-14, atol=1e-14)


def test_compiled_jacobian_is_the_array_jacobian(clebsch_bundle):
    field = clebsch_bundle.field
    x = np.random.default_rng(5).uniform(-2, 2, size=field.dimension)
    np.testing.assert_array_equal(field.compiled_jacobian()(x), pb.jacobian_exact(field, x))


def test_coefficient_arrays_are_symmetric_and_reproduce_the_field():
    rng = np.random.default_rng(13)
    exps = [e for e in itertools.product(range(4), repeat=3) if sum(e) <= 3]
    field = PolynomialVectorField(
        [Polynomial(3, [(rng.uniform(-2, 2), e) for e in exps]) for _ in range(3)]
    )
    arrays = field.coefficient_arrays()
    assert [a.shape for a in arrays] == [(3,) + (3,) * d for d in range(len(arrays))]
    for a in arrays[2:]:
        for axes in itertools.permutations(range(1, a.ndim)):
            np.testing.assert_array_equal(a, a.transpose((0,) + axes))
    for _ in range(10):
        x = rng.uniform(-1, 1, size=3)
        total = np.zeros(3)
        for a in arrays:
            term = a
            for _ in range(a.ndim - 1):
                term = term @ x
            total += term
        np.testing.assert_allclose(total, field(x), rtol=1e-13, atol=1e-13)


def test_evaluate_many_matches_scalar():
    rng = np.random.default_rng(12)
    p = random_poly(rng, 4)
    pts = rng.uniform(-1, 1, size=(15, 4))
    many = p.evaluate_many(pts)
    each = np.array([p.evaluate(x) for x in pts])
    np.testing.assert_allclose(many, each, rtol=1e-13, atol=1e-13)


def test_linear_field_constructor():
    a = np.array([[0.0, 2.0], [-1.0, 0.5]])
    field = PolynomialVectorField.linear(a)
    x = np.array([0.7, -0.3])
    np.testing.assert_allclose(field(x), a @ x, rtol=1e-15)


def test_field_requires_square_system():
    with pytest.raises(ValueError):
        PolynomialVectorField([Polynomial(3, [(1.0, (1, 0, 0))])] * 2)


def test_json_round_trip(clebsch_bundle):
    field = clebsch_bundle.field
    again = PolynomialVectorField.from_json(field.to_json())
    assert [p.terms for p in again.components] == [p.terms for p in field.components]
