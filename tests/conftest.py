import itertools
import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

import porbit as pb
from porbit.poly import Polynomial, PolynomialVectorField

CANONICAL_RIGID = dict(a1=1.0, a2=-1.0, a3=2.0, l=1.0)
CANONICAL_CLEBSCH = dict(a1=1.0, a2=2.0, a3=3.0)
EPSILONS = [0.05, 0.1, 0.2]


def quiet_rigid_body(**kwargs) -> pb.SystemBundle:
    """Canonical rigid-body bundle; the supplied a1 = 1 is inertia-inconsistent
    on purpose (it is what the reference parameter set uses), so the builder's
    warning is silenced here once instead of in every test."""
    params = pb.RigidBodyParams(**{**CANONICAL_RIGID, **kwargs})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return pb.build_rigid_body(params)


def polynomial_terms(n: int, max_degree: int = 3):
    """Up to six random terms in n variables, of total degree <= max_degree."""
    exps = [e for e in itertools.product(range(max_degree + 1), repeat=n) if sum(e) <= max_degree]
    coeff = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
    return st.lists(st.tuples(coeff, st.sampled_from(exps)), max_size=6)


@st.composite
def fields_and_points(draw, max_dim: int = 4):
    """A random polynomial field of dimension <= max_dim and degree <= 3, a
    random polynomial in the same variables, and a point."""
    n = draw(st.integers(1, max_dim))
    field = PolynomialVectorField([Polynomial(n, draw(polynomial_terms(n))) for _ in range(n)])
    q = Polynomial(n, draw(polynomial_terms(n)))
    x = np.array(draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n)))
    return field, q, x


@pytest.fixture(scope="session")
def rigid_bundle():
    return quiet_rigid_body()


@pytest.fixture(scope="session")
def clebsch_bundle():
    return pb.build_clebsch(pb.ClebschParams(**CANONICAL_CLEBSCH))


@pytest.fixture(scope="session")
def rigid_e1(rigid_bundle):
    return rigid_bundle.equilibrium("e1", 1.0)


@pytest.fixture(scope="session")
def clebsch_e1(clebsch_bundle):
    return clebsch_bundle.equilibrium("e1", 1.0)


@pytest.fixture(scope="session")
def rigid_family(rigid_bundle, rigid_e1):
    """Rigid-body orbit family over the shared epsilon ladder (omega = 1)."""
    problem = pb.orbit_problem(rigid_bundle, rigid_e1, 1.0, EPSILONS[-1])
    return pb.continue_family(problem, EPSILONS)


@pytest.fixture(scope="session")
def clebsch_families(clebsch_bundle, clebsch_e1):
    """Both Clebsch families over the epsilon ladder, keyed by omega."""
    out = {}
    for omega in (np.sqrt(2.0), 1.0):
        problem = pb.orbit_problem(clebsch_bundle, clebsch_e1, omega, EPSILONS[-1])
        out[omega] = pb.continue_family(problem, EPSILONS)
    return out
