"""Polynomial ODE systems bundled with their conserved quantities.

A :class:`SystemBundle` packages a polynomial vector field with a list of
constraint invariants (whose joint level set carries the dynamics), one
distinguished integral used for the definiteness test and the level-set
offset, named equilibrium families, and parameters.

Two models ship built in:

* the Euler rigid body with a feedback torque on the third axis, and
* the Clebsch system on R^6.

Conservation of every declared quantity is verified symbolically on the
monomial representation whenever a bundle is constructed.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .calculus import gradient_exact
from .errors import ConfigError, ConservationError, NoInertiaRealization
from .poly import Polynomial, PolynomialVectorField

CONSERVATION_TOL = 1e-12
EQUILIBRIUM_TOL = 1e-12


@dataclass(frozen=True)
class ConservedQuantity:
    """Named polynomial invariant with a role of ``constraint`` or ``integral``."""

    name: str
    polynomial: Polynomial
    role: str = "constraint"

    def __post_init__(self):
        if self.role not in ("constraint", "integral"):
            raise ValueError(f"unknown role {self.role!r}")

    def value(self, x) -> float:
        return self.polynomial.evaluate(x)

    def gradient(self, x) -> np.ndarray:
        return gradient_exact(self.polynomial, x)


def lie_derivative(quantity, vector_field: PolynomialVectorField) -> Polynomial:
    """Directional derivative grad(Q) . X as an expanded polynomial.

    One pass over the term lists: the products of the terms of dQ/dx_i with
    those of X_i are summed per i, each sum is added into one coefficient
    table, and one polynomial is built from it at the end. The additions run
    in the order of expanding sum_i (dQ/dx_i) X_i product by product, so the
    coefficients agree with that expansion to the bit.
    """
    poly = getattr(quantity, "polynomial", quantity)
    acc: dict[tuple[int, ...], float] = {}
    for i, comp in enumerate(vector_field.components):
        part: dict[tuple[int, ...], float] = {}
        for c, e in poly.terms:
            k = e[i]
            if k == 0:
                continue
            dc, de = c * k, e[:i] + (k - 1,) + e[i + 1 :]
            for cx, ex in comp.terms:
                exps = tuple(map(operator.add, de, ex))
                part[exps] = part.get(exps, 0.0) + dc * cx
        for exps, v in part.items():
            acc[exps] = acc.get(exps, 0.0) + v
    return Polynomial(poly.dimension, [(v, e) for e, v in acc.items()])


def conservation_defect(quantity, vector_field: PolynomialVectorField) -> float:
    """Largest coefficient of grad(Q) . X; zero means exactly conserved."""
    return lie_derivative(quantity, vector_field).max_abs_coeff()


class SystemBundle:
    """A vector field plus the conserved-quantity data the analysis needs.

    Immutable after construction. ``families`` maps labels like ``"e1"`` to
    callables ``M -> state``; ``equilibria`` holds fixed named points.
    """

    def __init__(
        self,
        name: str,
        vector_field: PolynomialVectorField,
        constraints: Sequence[ConservedQuantity],
        integral: ConservedQuantity,
        parameters: Mapping[str, float] | None = None,
        equilibria: Mapping[str, Sequence[float]] | None = None,
        families: Mapping[str, Callable[[float], np.ndarray]] | None = None,
        extra_quantities: Sequence[ConservedQuantity] = (),
        level_aliases: Mapping[str, tuple[str, float]] | None = None,
    ):
        self.name = name
        self.field = vector_field
        self.constraints = tuple(constraints)
        self.integral = integral
        self.parameters = dict(parameters or {})
        self.equilibria = {
            k: np.asarray(v, dtype=float) for k, v in (equilibria or {}).items()
        }
        self.families = dict(families or {})
        self.extra_quantities = tuple(extra_quantities)
        self.level_aliases = dict(level_aliases or {})

        n = vector_field.dimension
        for q in self.all_quantities():
            if q.polynomial.dimension != n:
                raise ConfigError(f"quantity {q.name!r} has wrong dimension")
        self.verify_conservation()
        for label, point in self.equilibria.items():
            self._check_equilibrium(label, point)

    @property
    def dimension(self) -> int:
        return self.field.dimension

    @property
    def k(self) -> int:
        return len(self.constraints)

    def all_quantities(self) -> tuple[ConservedQuantity, ...]:
        return self.constraints + (self.integral,) + self.extra_quantities

    def verify_conservation(self, tol: float = CONSERVATION_TOL):
        """Raise unless every declared quantity is exactly conserved."""
        for q in self.all_quantities():
            defect = conservation_defect(q, self.field)
            if defect > tol:
                raise ConservationError(
                    f"{q.name!r} is not conserved: largest derivative coefficient {defect:.3e}"
                )

    def _check_equilibrium(self, label: str, point: np.ndarray):
        residual = float(np.max(np.abs(self.field(point))))
        if not residual < EQUILIBRIUM_TOL:  # also catches a NaN residual
            raise ConfigError(
                f"equilibrium {label!r} has residual {residual:.3e} >= {EQUILIBRIUM_TOL}"
            )

    def equilibrium(self, label: str, M: float | None = None) -> np.ndarray:
        """Resolve a named equilibrium; family labels need a nonzero finite M."""
        if label in self.families:
            if M is None:
                raise ConfigError(f"equilibrium family {label!r} needs a value of M")
            M = float(M)
            if M == 0.0:
                raise ConfigError("M must be nonzero")
            if not math.isfinite(M):
                raise ConfigError(f"M must be finite, got {M}")
            point = np.asarray(self.families[label](M), dtype=float)
            self._check_equilibrium(f"{label}(M={M})", point)
            return point
        if label in self.equilibria:
            return self.equilibria[label].copy()
        raise ConfigError(f"unknown equilibrium {label!r}")


# ---------------------------------------------------------------------------
# Rigid body with one controlled axis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RigidBodyParams:
    """Coefficients of the controlled Euler equations plus the gain l.

    For any inertia tensor the three Euler coefficients sum to zero, so only
    a2 and a3 are free; the first-axis coefficient used by the model is always
    ``-(a2 + a3)``. A supplied ``a1`` that disagrees is accepted (the value is
    kept for reporting) but triggers a warning, because the quadratic
    invariants below hold only for the inertia-consistent field.
    """

    a1: float
    a2: float
    a3: float
    l: float

    def __post_init__(self):
        if self.a3 == 0.0:
            raise ConfigError("a3 must be nonzero (alpha undefined)")

    @property
    def alpha(self) -> float:
        return (self.a3 - self.l) / self.a3

    @property
    def a1_effective(self) -> float:
        return -(self.a2 + self.a3)

    @property
    def is_inertia_consistent(self) -> bool:
        return abs(self.a1 - self.a1_effective) <= 1e-12 * max(1.0, abs(self.a1))

    @classmethod
    def from_inertia(cls, i1: float, i2: float, i3: float, l: float) -> "RigidBodyParams":
        """Build coefficients from principal moments of inertia."""
        if min(i1, i2, i3) <= 0.0:
            raise ConfigError("moments of inertia must be positive")
        a1 = 1.0 / i3 - 1.0 / i2
        a2 = 1.0 / i1 - 1.0 / i3
        a3 = 1.0 / i2 - 1.0 / i1
        return cls(a1=a1, a2=a2, a3=a3, l=l)

    def inverse_inertias(self, gauge: float = 1.0) -> tuple[float, float, float]:
        """Reciprocal inertias (1/I1, 1/I2, 1/I3) under the gauge 1/I1 = gauge.

        The coefficient relations determine the reciprocals only up to a
        common additive constant; the default gauge pins 1/I1 = 1.
        """
        r1 = gauge
        r2 = gauge + self.a3
        r3 = gauge - self.a2
        if r2 <= 0.0 or r3 <= 0.0:
            raise NoInertiaRealization(
                "no inertia realization: nonpositive reciprocal inertia under the "
                f"default gauge (1/I2 = {r2}, 1/I3 = {r3}); pick a larger gauge"
            )
        return r1, r2, r3


def build_rigid_body(params: RigidBodyParams) -> SystemBundle:
    """Bundle for the rigid body with one torque-controlled axis.

    Field (m1, m2, m3):

        dm1/dt = -(a2 + a3) m2 m3
        dm2/dt = a2 m1 m3
        dm3/dt = (a3 - l) m1 m2

    Constraint: C_alpha = alpha (m1^2 + m2^2) + m3^2 with alpha = (a3 - l)/a3,
    a Casimir-type invariant whose level sets carry the reduced dynamics.
    Integral: F = (a3 m2^2 - (a2/alpha) m3^2)/2, which is critical at every
    point of the e1 axis.
    """
    if not params.is_inertia_consistent:
        warnings.warn(
            "rigid body: the first-axis coefficient is fixed by -(a2 + a3); "
            "the supplied a1 disagrees and is ignored by the field",
            stacklevel=2,
        )
    a2, a3, l = params.a2, params.a3, params.l
    alpha = params.alpha
    if alpha == 0.0:
        raise ConfigError("l = a3 gives alpha = 0; the invariants degenerate")
    a1_eff = params.a1_effective

    vector_field = PolynomialVectorField.from_terms(
        3,
        [
            [(a1_eff, (0, 1, 1))],
            [(a2, (1, 0, 1))],
            [(a3 - l, (1, 1, 0))],
        ],
    )
    casimir = ConservedQuantity(
        "C_alpha",
        Polynomial(3, [(alpha, (2, 0, 0)), (alpha, (0, 2, 0)), (1.0, (0, 0, 2))]),
        role="constraint",
    )
    integral = ConservedQuantity(
        "F",
        Polynomial(3, [(a3 / 2.0, (0, 2, 0)), (-a2 / (2.0 * alpha), (0, 0, 2))]),
        role="integral",
    )

    families = {
        "e1": lambda M: np.array([M, 0.0, 0.0]),
        "e2": lambda M: np.array([0.0, M, 0.0]),
        "e3": lambda M: np.array([0.0, 0.0, M]),
    }
    parameters = {
        "a1": params.a1,
        "a2": a2,
        "a3": a3,
        "l": l,
        "alpha": alpha,
        "a1_effective": a1_eff,
    }
    return SystemBundle(
        "rigid_body",
        vector_field,
        [casimir],
        integral,
        parameters=parameters,
        families=families,
    )


def poisson_tensor(params: RigidBodyParams, m) -> np.ndarray:
    """The antisymmetric structure matrix of the rigid-body realization."""
    m = np.asarray(m, dtype=float)
    alpha = params.alpha
    return np.array(
        [
            [0.0, -m[2], alpha * m[1]],
            [m[2], 0.0, -alpha * m[0]],
            [-alpha * m[1], alpha * m[0], 0.0],
        ]
    )


@dataclass(frozen=True)
class RealizationReport:
    """Residuals of the Hamilton-Poisson identities over a sample set."""

    max_field_residual: float
    max_casimir_residual: float
    samples: int
    inverse_inertias: tuple[float, float, float]

    def to_dict(self) -> dict:
        return {
            "max_field_residual": self.max_field_residual,
            "max_casimir_residual": self.max_casimir_residual,
            "samples": self.samples,
            "inverse_inertias": list(self.inverse_inertias),
        }


def verify_poisson_realization(
    params: RigidBodyParams, samples: Sequence[Sequence[float]]
) -> RealizationReport:
    """Check Pi grad(H) = X and Pi grad(C_alpha) = 0 at every sample point.

    H is the quadratic energy built from the reciprocal inertias under the
    default gauge. Raises :class:`NoInertiaRealization` when alpha vanishes or
    the gauge produces nonpositive reciprocals.
    """
    if params.alpha == 0.0:
        raise NoInertiaRealization("alpha = 0: the realization needs l != a3")
    r1, r2, r3 = params.inverse_inertias()
    alpha = params.alpha
    bundle = _quiet_rigid_body(params)
    f = bundle.field
    casimir = bundle.constraints[0]

    max_field = 0.0
    max_casimir = 0.0
    count = 0
    for m in samples:
        m = np.asarray(m, dtype=float)
        if not np.all(np.isfinite(m)):
            raise ConfigError("sample points must be finite")
        pi = poisson_tensor(params, m)
        grad_h = np.array([r1 * m[0], r2 * m[1], (r3 / alpha) * m[2]])
        max_field = max(max_field, float(np.max(np.abs(pi @ grad_h - f(m)))))
        grad_c = casimir.gradient(m)
        max_casimir = max(max_casimir, float(np.max(np.abs(pi @ grad_c))))
        count += 1
    if count == 0:
        raise ConfigError("at least one sample point is required")
    return RealizationReport(max_field, max_casimir, count, (r1, r2, r3))


def _quiet_rigid_body(params: RigidBodyParams) -> SystemBundle:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_rigid_body(params)


# ---------------------------------------------------------------------------
# Clebsch system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClebschParams:
    """The three quadratic coefficients of the Clebsch system.

    The standard regime takes all three positive; any pairwise-distinct reals
    are accepted, with a warning flagging values outside that regime.
    """

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        if self.a1 == self.a2 or self.a2 == self.a3 or self.a1 == self.a3:
            raise ConfigError("a1, a2, a3 must be pairwise distinct")

    @property
    def in_standard_regime(self) -> bool:
        return self.a1 > 0.0 and self.a2 > 0.0 and self.a3 > 0.0


def build_clebsch(params: ClebschParams) -> SystemBundle:
    """Bundle for the Clebsch system on R^6 with coordinates (x, p).

    Constraints: C = (x1^2 + x2^2 + x3^2)/2 and D = x . p (so the sphere
    |x| = M is the level C = M^2/2; reports expose the doubled value under
    the alias ``sphere_radius_sq``). Integral: F = H - a1 C where H is the
    quadratic energy.
    """
    if not params.in_standard_regime:
        warnings.warn("Clebsch parameters outside the standard positive regime", stacklevel=2)
    a1, a2, a3 = params.a1, params.a2, params.a3

    vector_field = PolynomialVectorField.from_terms(
        6,
        [
            [(1.0, (0, 1, 0, 0, 0, 1)), (-1.0, (0, 0, 1, 0, 1, 0))],
            [(1.0, (0, 0, 1, 1, 0, 0)), (-1.0, (1, 0, 0, 0, 0, 1))],
            [(1.0, (1, 0, 0, 0, 1, 0)), (-1.0, (0, 1, 0, 1, 0, 0))],
            [(a3 - a2, (0, 1, 1, 0, 0, 0))],
            [(a1 - a3, (1, 0, 1, 0, 0, 0))],
            [(a2 - a1, (1, 1, 0, 0, 0, 0))],
        ],
    )

    def quad(coeffs: dict[int, float]) -> Polynomial:
        terms = []
        for idx, c in coeffs.items():
            e = [0] * 6
            e[idx] = 2
            terms.append((c, e))
        return Polynomial(6, terms)

    c_quantity = ConservedQuantity(
        "C", quad({0: 0.5, 1: 0.5, 2: 0.5}), role="constraint"
    )
    d_quantity = ConservedQuantity(
        "D",
        Polynomial(
            6,
            [
                (1.0, (1, 0, 0, 1, 0, 0)),
                (1.0, (0, 1, 0, 0, 1, 0)),
                (1.0, (0, 0, 1, 0, 0, 1)),
            ],
        ),
        role="constraint",
    )
    h_quantity = ConservedQuantity(
        "H",
        quad({0: a1 / 2.0, 1: a2 / 2.0, 2: a3 / 2.0, 3: 0.5, 4: 0.5, 5: 0.5}),
        role="integral",
    )
    integral = ConservedQuantity(
        "F",
        quad({1: (a2 - a1) / 2.0, 2: (a3 - a1) / 2.0, 3: 0.5, 4: 0.5, 5: 0.5}),
        role="integral",
    )

    families = {
        "e1": lambda M: np.array([M, 0.0, 0.0, 0.0, 0.0, 0.0]),
        "e2": lambda M: np.array([0.0, M, 0.0, 0.0, 0.0, 0.0]),
        "e3": lambda M: np.array([0.0, 0.0, M, 0.0, 0.0, 0.0]),
    }
    return SystemBundle(
        "clebsch",
        vector_field,
        [c_quantity, d_quantity],
        integral,
        parameters={"a1": a1, "a2": a2, "a3": a3},
        families=families,
        extra_quantities=(h_quantity,),
        level_aliases={"sphere_radius_sq": ("C", 2.0)},
    )


# ---------------------------------------------------------------------------
# Config-file schema
# ---------------------------------------------------------------------------


def bundle_from_config(cfg: Mapping) -> SystemBundle:
    """Build a bundle from the JSON system schema.

    Either ``{"system": "rigid_body" | "clebsch", "params": {...}}`` or an
    inline polynomial definition ``{"system": {"dimension": n, "components":
    [...], "constraints": [...], "integral": {...}}}``.  Inline definitions
    have every declared quantity verified symbolically; violations fail the
    load.
    """
    try:
        system = cfg["system"]
    except (KeyError, TypeError):
        raise ConfigError("config needs a 'system' entry") from None

    if isinstance(system, str):
        params = cfg.get("params", {})
        try:
            if system == "rigid_body":
                return build_rigid_body(RigidBodyParams(**params))
            if system == "clebsch":
                return build_clebsch(ClebschParams(**params))
        except TypeError as exc:
            raise ConfigError(f"bad params for {system!r}: {exc}") from None
        raise ConfigError(f"unknown built-in system {system!r}")

    if not isinstance(system, Mapping):
        raise ConfigError("'system' must be a name or an inline definition")
    return _bundle_from_inline(system)


def _quantity_from_json(n: int, data: Mapping, default_role: str) -> ConservedQuantity:
    try:
        name = data["name"]
        terms = data["terms"]
    except (KeyError, TypeError):
        raise ConfigError("each quantity needs 'name' and 'terms'") from None
    return ConservedQuantity(
        name,
        Polynomial.from_json(n, terms),
        role=data.get("role", default_role),
    )


def _bundle_from_inline(system: Mapping) -> SystemBundle:
    try:
        n = int(system["dimension"])
        components = system["components"]
    except (KeyError, TypeError, ValueError):
        raise ConfigError("inline system needs 'dimension' and 'components'") from None
    if len(components) != n:
        raise ConfigError(f"expected {n} components, got {len(components)}")
    try:
        vector_field = PolynomialVectorField(
            [Polynomial.from_json(n, comp) for comp in components]
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad component polynomial: {exc}") from None

    constraints = [
        _quantity_from_json(n, q, "constraint") for q in system.get("constraints", [])
    ]
    if "integral" not in system:
        raise ConfigError("inline system needs an 'integral' quantity")
    integral = _quantity_from_json(n, system["integral"], "integral")
    extras = [
        _quantity_from_json(n, q, "integral") for q in system.get("extra_quantities", [])
    ]
    equilibria = {
        label: np.asarray(point, dtype=float)
        for label, point in system.get("equilibria", {}).items()
    }
    aliases = {
        alias: (entry[0], float(entry[1]))
        for alias, entry in system.get("level_aliases", {}).items()
    }
    return SystemBundle(
        system.get("name", "custom"),
        vector_field,
        constraints,
        integral,
        parameters=system.get("parameters", {}),
        equilibria=equilibria,
        extra_quantities=extras,
        level_aliases=aliases,
    )


def bundle_to_config(bundle: SystemBundle) -> dict:
    """Serialize a bundle to the inline polynomial schema (round-trips)."""

    def qdict(q: ConservedQuantity) -> dict:
        return {"name": q.name, "role": q.role, "terms": q.polynomial.to_json()}

    system = {
        "name": bundle.name,
        "dimension": bundle.dimension,
        "components": [p.to_json() for p in bundle.field.components],
        "constraints": [qdict(q) for q in bundle.constraints],
        "integral": qdict(bundle.integral),
        "parameters": dict(bundle.parameters),
    }
    if bundle.extra_quantities:
        system["extra_quantities"] = [qdict(q) for q in bundle.extra_quantities]
    if bundle.equilibria:
        system["equilibria"] = {k: list(map(float, v)) for k, v in bundle.equilibria.items()}
    if bundle.level_aliases:
        system["level_aliases"] = {
            alias: [base, factor] for alias, (base, factor) in bundle.level_aliases.items()
        }
    return {"system": system}


def sphere_levels(bundle: SystemBundle, x) -> dict[str, float]:
    """Constraint levels at x, including any aliased conventions."""
    levels = {q.name: q.value(x) for q in bundle.constraints}
    for alias, (base, factor) in bundle.level_aliases.items():
        if base in levels:
            levels[alias] = factor * levels[base]
    return levels
