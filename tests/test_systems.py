import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import porbit as pb
from porbit.systems import conservation_defect, lie_derivative, sphere_levels

from conftest import fields_and_points, quiet_rigid_body
from oracles import lie_derivative_products


def sympy_lie_derivative(bundle: pb.SystemBundle, quantity) -> sp.Expr:
    """Independent conservation oracle: expand grad(Q) . X with sympy."""
    n = bundle.dimension
    xs = sp.symbols(f"x0:{n}")

    def expr_of(poly):
        out = sp.Integer(0)
        for c, e in poly.terms:
            term = sp.Float(c, 17)
            for s, k in zip(xs, e):
                term *= s**k
            out += term
        return out

    q = expr_of(quantity.polynomial)
    total = sp.Integer(0)
    for i, comp in enumerate(bundle.field.components):
        total += sp.diff(q, xs[i]) * expr_of(comp)
    return sp.expand(total)


# -- rigid body ---------------------------------------------------------------


def test_rigid_build_canonical_values(rigid_bundle):
    e1 = rigid_bundle.equilibrium("e1", 1.0)
    np.testing.assert_array_equal(rigid_bundle.field(e1), np.zeros(3))
    casimir = rigid_bundle.constraints[0]
    # alpha = (a3 - l)/a3 = 1/2, so grad C_alpha(e1) = (2 alpha, 0, 0) = (1, 0, 0)
    np.testing.assert_allclose(casimir.gradient(e1), [1.0, 0.0, 0.0])
    assert rigid_bundle.parameters["alpha"] == 0.5


def test_rigid_conservation_sympy_oracle(rigid_bundle):
    for q in rigid_bundle.all_quantities():
        residual = sympy_lie_derivative(rigid_bundle, q)
        assert sp.simplify(residual) == 0, f"{q.name} not conserved: {residual}"


def test_rigid_conservation_defect_is_tiny(rigid_bundle):
    for q in rigid_bundle.all_quantities():
        assert conservation_defect(q, rigid_bundle.field) <= 1e-12


@given(
    a2=st.floats(-3, -0.1),
    a3=st.floats(0.5, 3),
    gap=st.floats(0.1, 2),
    m=st.floats(0.25, 2.5),
)
@settings(max_examples=40, deadline=None)
def test_rigid_integral_is_critical_on_axis(a2, a3, gap, m):
    bundle = quiet_rigid_body(a2=a2, a3=a3, l=a3 - gap)
    e1 = bundle.equilibrium("e1", m)
    np.testing.assert_array_equal(pb.gradient_exact(bundle.integral, e1), np.zeros(3))


def test_rigid_casimir_level_on_axis(rigid_bundle):
    alpha = rigid_bundle.parameters["alpha"]
    for m in (0.5, 1.0, 2.0, -0.5, -1.0, -2.0):
        e1 = rigid_bundle.equilibrium("e1", m)
        assert rigid_bundle.constraints[0].value(e1) == pytest.approx(alpha * m * m, rel=1e-15)


def test_rigid_equilibria_exact_for_all_families(rigid_bundle):
    for label in ("e1", "e2", "e3"):
        for m in (0.5, 1.0, 2.0, -0.5, -1.0, -2.0):
            e = rigid_bundle.equilibrium(label, m)
            assert np.max(np.abs(rigid_bundle.field(e))) == 0.0


def test_rigid_rejects_degenerate_params():
    with pytest.raises(pb.ConfigError):
        pb.RigidBodyParams(a1=1.0, a2=-1.0, a3=0.0, l=1.0)
    with pytest.raises(pb.ConfigError):
        # l = a3 makes alpha vanish and the invariants degenerate
        pb.build_rigid_body(pb.RigidBodyParams(a1=-1.0, a2=-1.0, a3=2.0, l=2.0))


def test_rigid_warns_on_inconsistent_a1():
    with pytest.warns(UserWarning, match="a2 \\+ a3"):
        pb.build_rigid_body(pb.RigidBodyParams(a1=1.0, a2=-1.0, a3=2.0, l=1.0))


def test_rigid_from_inertia_is_consistent():
    params = pb.RigidBodyParams.from_inertia(1.0, 1.0 / 3.0, 0.5, 1.0)
    assert params.is_inertia_consistent
    assert params.a1 == pytest.approx(-(params.a2 + params.a3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pb.build_rigid_body(params)  # no warning expected


def test_equilibrium_family_rejects_zero_m(rigid_bundle):
    with pytest.raises(pb.ConfigError, match="M must be nonzero"):
        rigid_bundle.equilibrium("e1", 0.0)
    with pytest.raises(pb.ConfigError):
        rigid_bundle.equilibrium("e9", 1.0)


# -- Poisson realization ------------------------------------------------------


def test_poisson_tensor_is_antisymmetric():
    params = pb.RigidBodyParams(**{"a1": 1.0, "a2": -1.0, "a3": 2.0, "l": 1.0})
    rng = np.random.default_rng(0)
    for _ in range(10):
        pi = pb.poisson_tensor(params, rng.uniform(-2, 2, size=3))
        assert np.array_equal(pi + pi.T, np.zeros((3, 3)))


def test_realization_residuals_vanish_at_origin():
    params = pb.RigidBodyParams(a1=1.0, a2=-1.0, a3=2.0, l=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = pb.verify_poisson_realization(params, [np.zeros(3)])
    assert report.max_field_residual == 0.0
    assert report.max_casimir_residual == 0.0


@pytest.mark.parametrize(
    "params",
    [
        pb.RigidBodyParams.from_inertia(1.0, 1.0 / 3.0, 0.5, 1.0),
        pb.RigidBodyParams(a1=1.0, a2=-1.0, a3=2.0, l=1.0),
    ],
    ids=["inertia-consistent", "reference-set"],
)
def test_realization_identities_hold_on_samples(params):
    rng = np.random.default_rng(42)
    samples = rng.uniform(-1.0, 1.0, size=(100, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = pb.verify_poisson_realization(params, samples)
    assert report.samples == 100
    assert report.max_field_residual < 1e-12
    assert report.max_casimir_residual < 1e-12


def test_realization_unavailable_cases():
    with pytest.raises(pb.NoInertiaRealization):
        pb.verify_poisson_realization(
            pb.RigidBodyParams(a1=-1.0, a2=-1.0, a3=2.0, l=2.0), [np.zeros(3)]
        )
    with pytest.raises(pb.NoInertiaRealization):
        # a2 = 1 makes 1/I3 hit zero under the default gauge
        pb.RigidBodyParams(a1=-3.0, a2=1.0, a3=2.0, l=1.0).inverse_inertias()


# -- Clebsch ------------------------------------------------------------------


def test_clebsch_gradients_at_e1(clebsch_bundle, clebsch_e1):
    c = next(q for q in clebsch_bundle.constraints if q.name == "C")
    d = next(q for q in clebsch_bundle.constraints if q.name == "D")
    np.testing.assert_allclose(c.gradient(clebsch_e1), [1, 0, 0, 0, 0, 0])
    np.testing.assert_allclose(d.gradient(clebsch_e1), [0, 0, 0, 1, 0, 0])


def test_clebsch_conservation_sympy_oracle(clebsch_bundle):
    for q in clebsch_bundle.all_quantities():
        residual = sympy_lie_derivative(clebsch_bundle, q)
        assert sp.simplify(residual) == 0, f"{q.name} not conserved: {residual}"


def test_clebsch_pairing_derivative_is_zero_polynomial(clebsch_bundle):
    d = next(q for q in clebsch_bundle.constraints if q.name == "D")
    assert lie_derivative(d, clebsch_bundle.field).terms == ()


@given(fields_and_points())
@settings(max_examples=80, deadline=None)
def test_lie_derivative_matches_the_product_expansion(case):
    field, q, _ = case
    expected = lie_derivative_products(q, field)
    assert conservation_defect(q, field) == pytest.approx(expected.max_abs_coeff(), abs=1e-15)
    assert lie_derivative(q, field) == expected


@pytest.mark.parametrize("which", ["rigid", "clebsch"])
def test_casimir_perturbed_by_1e9_fails_to_load(which, rigid_bundle, clebsch_bundle):
    bundle = rigid_bundle if which == "rigid" else clebsch_bundle
    cfg = pb.bundle_to_config(bundle)
    pb.bundle_from_config(cfg)  # the exact Casimir loads
    cfg["system"]["constraints"][-1]["terms"][0]["coeff"] += 1e-9
    with pytest.raises(pb.ConservationError):
        pb.bundle_from_config(cfg)


def test_clebsch_integral_vanishes_on_axis(clebsch_bundle):
    for m in (0.5, 1.0, 2.0):
        e1 = clebsch_bundle.equilibrium("e1", m)
        assert clebsch_bundle.integral.value(e1) == 0.0


def test_clebsch_constraint_levels(clebsch_bundle):
    for m in (0.5, 1.0, 2.0):
        e1 = clebsch_bundle.equilibrium("e1", m)
        levels = sphere_levels(clebsch_bundle, e1)
        assert levels["C"] == pytest.approx(m * m / 2.0, rel=1e-15)
        assert levels["D"] == 0.0
        assert levels["sphere_radius_sq"] == pytest.approx(m * m, rel=1e-15)


def test_clebsch_rejects_repeated_parameters():
    with pytest.raises(pb.ConfigError):
        pb.ClebschParams(1.0, 1.0, 3.0)
    with pytest.raises(pb.ConfigError):
        pb.ClebschParams(1.0, 2.0, 2.0)


def test_clebsch_warns_outside_standard_regime():
    with pytest.warns(UserWarning, match="regime"):
        pb.build_clebsch(pb.ClebschParams(-1.0, 2.0, 3.0))


def test_clebsch_equilibria_exact(clebsch_bundle):
    for label in ("e1", "e2", "e3"):
        for m in (0.5, 1.0, 2.0):
            e = clebsch_bundle.equilibrium(label, m)
            assert np.max(np.abs(clebsch_bundle.field(e))) == 0.0


# -- config schema ------------------------------------------------------------


def test_builtin_config_round_trip(clebsch_bundle, clebsch_e1):
    cfg = pb.bundle_to_config(clebsch_bundle)
    again = pb.bundle_from_config(cfg)
    first = pb.check_theorem(clebsch_bundle, clebsch_e1).to_json()
    second = pb.check_theorem(again, clebsch_e1).to_json()
    assert first == second


def test_config_load_rejects_nonconserved_quantity():
    cfg = {
        "system": {
            "dimension": 2,
            "components": [
                [{"coeff": 1.0, "exps": [0, 1]}],
                [{"coeff": -1.0, "exps": [1, 0]}],
            ],
            "constraints": [],
            "integral": {"name": "bogus", "terms": [{"coeff": 1.0, "exps": [1, 0]}]},
        }
    }
    with pytest.raises(pb.ConservationError):
        pb.bundle_from_config(cfg)


def test_config_load_reports_missing_fields():
    with pytest.raises(pb.ConfigError):
        pb.bundle_from_config({})
    with pytest.raises(pb.ConfigError):
        pb.bundle_from_config({"system": "unknown_model"})
    with pytest.raises(pb.ConfigError):
        pb.bundle_from_config({"system": {"dimension": 2, "components": []}})


def test_custom_harmonic_config_loads():
    cfg = {
        "system": {
            "dimension": 2,
            "components": [
                [{"coeff": 1.0, "exps": [0, 1]}],
                [{"coeff": -1.0, "exps": [1, 0]}],
            ],
            "constraints": [],
            "integral": {
                "name": "energy",
                "terms": [
                    {"coeff": 0.5, "exps": [2, 0]},
                    {"coeff": 0.5, "exps": [0, 2]},
                ],
            },
            "equilibria": {"origin": [0.0, 0.0]},
        }
    }
    bundle = pb.bundle_from_config(cfg)
    assert bundle.k == 0
    np.testing.assert_array_equal(bundle.equilibrium("origin"), np.zeros(2))
