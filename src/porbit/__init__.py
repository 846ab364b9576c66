"""Periodic orbits near degenerate equilibria of conservative polynomial systems.

The package checks, at an equilibrium of a polynomial ODE system with enough
conserved quantities, the spectral and definiteness conditions that guarantee
a family of periodic orbits on nearby level sets, and then computes those
orbits by constrained shooting with continuation in the level offset.
"""

from .calculus import (
    gradient_exact,
    hessian_exact,
    jacobian_exact,
)
from .checker import CheckTolerances, HypothesisReport, check_theorem
from .errors import (
    ConfigError,
    ConservationError,
    DependentConstraints,
    EigenplaneDegenerate,
    EigenSolveError,
    IntegrationError,
    NoInertiaRealization,
    NotAnEquilibrium,
    OrbitSolveError,
    PorbitError,
)
from .integrators import (
    StepStats,
    ToleranceSettings,
    Trajectory,
    drift_report,
    flow,
    flow_with_monodromy,
    integrate,
    monodromy,
)
from .orbits import (
    OrbitFamily,
    OrbitProblem,
    PeriodicOrbit,
    SolverSettings,
    continue_family,
    initial_guess,
    orbit_problem,
    reversors,
    sample_orbit,
    solve_orbit,
)
from .poly import Polynomial, PolynomialVectorField
from .spectral import (
    EigenData,
    SubspaceBasis,
    eigen,
    imaginary_pairs,
    is_positive_definite,
    kernel,
    oscillation_plane,
    restricted_hessian,
    subspace_equal,
)
from .systems import (
    ClebschParams,
    ConservedQuantity,
    RealizationReport,
    RigidBodyParams,
    SystemBundle,
    build_clebsch,
    build_rigid_body,
    bundle_from_config,
    bundle_to_config,
    conservation_defect,
    lie_derivative,
    poisson_tensor,
    verify_poisson_realization,
)

__version__ = "0.1.0"

__all__ = [
    "CheckTolerances",
    "ClebschParams",
    "ConfigError",
    "ConservationError",
    "ConservedQuantity",
    "DependentConstraints",
    "EigenData",
    "EigenplaneDegenerate",
    "EigenSolveError",
    "HypothesisReport",
    "IntegrationError",
    "NoInertiaRealization",
    "NotAnEquilibrium",
    "OrbitFamily",
    "OrbitProblem",
    "OrbitSolveError",
    "PeriodicOrbit",
    "Polynomial",
    "PolynomialVectorField",
    "PorbitError",
    "RealizationReport",
    "RigidBodyParams",
    "SolverSettings",
    "StepStats",
    "SubspaceBasis",
    "SystemBundle",
    "ToleranceSettings",
    "Trajectory",
    "build_clebsch",
    "build_rigid_body",
    "bundle_from_config",
    "bundle_to_config",
    "check_theorem",
    "conservation_defect",
    "continue_family",
    "drift_report",
    "eigen",
    "flow",
    "flow_with_monodromy",
    "gradient_exact",
    "hessian_exact",
    "imaginary_pairs",
    "initial_guess",
    "integrate",
    "is_positive_definite",
    "jacobian_exact",
    "kernel",
    "lie_derivative",
    "monodromy",
    "orbit_problem",
    "oscillation_plane",
    "poisson_tensor",
    "restricted_hessian",
    "reversors",
    "sample_orbit",
    "solve_orbit",
    "subspace_equal",
    "verify_poisson_realization",
]
