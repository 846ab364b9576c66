"""Command-line front end.

Each subcommand accepts exactly the flags it reads (brackets mark optional ones):

- ``check --config``
- ``find-orbit --config [--out --tol-ode --tol-orbit --skip-check --omega-index --csv]``
- ``continue --config [--out --tol-ode --tol-orbit --skip-check --omega-index]``
- ``integrate --config --t-end [--out --tol-ode]``
- ``verify-realization --config [--seed --samples]``

Reports go to stdout as JSON. CSV data are written only under an explicit
``--out`` directory, except that ``integrate`` without one prints its
trajectory. Exit codes: 0 success or verdict true, 1 mathematical negative
(verdict false, non-convergence), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .checker import check_theorem
from .errors import ConfigError, NoInertiaRealization, NotAnEquilibrium, PorbitError
from .integrators import drift_report, integrate, write_csv
from .orbits import SolverSettings, continue_family, orbit_problem, sample_orbit, solve_orbit
from .systems import (
    RigidBodyParams,
    SystemBundle,
    bundle_from_config,
    verify_poisson_realization,
)

USAGE_ERROR = 2
MATH_NEGATIVE = 1


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


def _resolve_equilibrium(bundle: SystemBundle, cfg: dict) -> np.ndarray:
    entry = cfg.get("equilibrium")
    if entry is None:
        raise ConfigError("config needs an 'equilibrium' entry")
    if "point" in entry:
        point = np.asarray(entry["point"], dtype=float)
        if point.shape != (bundle.dimension,):
            raise ConfigError(
                f"equilibrium point must have {bundle.dimension} coordinates"
            )
        return point
    if "family" in entry:
        return bundle.equilibrium(entry["family"], entry.get("M"))
    raise ConfigError("equilibrium needs either 'family' + 'M' or 'point'")


def _solver_settings(cfg: dict, args) -> SolverSettings:
    tol_cfg = cfg.get("tolerances", {})
    settings = SolverSettings()
    ode = settings.ode
    if "abs_tol" in tol_cfg:
        ode = replace(ode, abs_tol=float(tol_cfg["abs_tol"]))
    if "rel_tol" in tol_cfg:
        ode = replace(ode, rel_tol=float(tol_cfg["rel_tol"]))
    if args.tol_ode is not None:
        ode = replace(ode, abs_tol=args.tol_ode, rel_tol=args.tol_ode)
    settings = replace(settings, ode=ode)
    if "tol_orbit" in tol_cfg:
        settings = replace(settings, tol_orbit=float(tol_cfg["tol_orbit"]))
    if getattr(args, "tol_orbit", None) is not None:
        settings = replace(settings, tol_orbit=args.tol_orbit)
    if "max_iter" in tol_cfg:
        settings = replace(settings, max_iter=int(tol_cfg["max_iter"]))
    return settings


def _epsilons(cfg: dict) -> list[float]:
    eps = cfg.get("epsilons", [])
    if not eps:
        raise ConfigError("config needs a nonempty 'epsilons' list")
    eps = [float(e) for e in eps]
    if any(e <= 0 for e in eps):
        raise ConfigError("epsilons must be positive")
    return sorted(eps)


def _select_omegas(omegas: list[float], index: int | None) -> list[tuple[int, float]]:
    if not omegas:
        raise ConfigError("no oscillation frequencies at this equilibrium")
    if index is None:
        return list(enumerate(omegas))
    if not 0 <= index < len(omegas):
        raise ConfigError(
            f"omega_index {index} out of range; {len(omegas)} families available"
        )
    return [(index, omegas[index])]


def _ensure_out(args) -> str | None:
    out = args.out
    if getattr(args, "csv", False) and out is None:
        raise ConfigError("--csv needs an --out directory")
    if out is not None:
        os.makedirs(out, exist_ok=True)
    return out


def _print_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _fmt_eps(eps: float) -> str:
    return f"{eps:g}".replace("-", "m")


# -- subcommands -------------------------------------------------------------


def cmd_check(args) -> int:
    cfg = _load_config(args.config)
    bundle = bundle_from_config(cfg)
    x0 = _resolve_equilibrium(bundle, cfg)
    report = check_theorem(bundle, x0)
    _print_json(report.to_dict())
    return 0 if report.verdict else MATH_NEGATIVE


def _orbit_setup(args):
    """Shared start of ``find-orbit`` and ``continue``.

    Returns (out, bundle, x0, settings, epsilons, selected omegas), or None
    after reporting unsatisfied hypotheses on stderr.
    """
    cfg = _load_config(args.config)
    out = _ensure_out(args)
    bundle = bundle_from_config(cfg)
    x0 = _resolve_equilibrium(bundle, cfg)
    settings = _solver_settings(cfg, args)
    epsilons = _epsilons(cfg)

    report = check_theorem(bundle, x0)
    if not args.skip_check and not report.verdict:
        sys.stderr.write("hypotheses not satisfied at this equilibrium:\n")
        sys.stderr.write(report.to_json() + "\n")
        return None

    index = args.omega_index if args.omega_index is not None else cfg.get("omega_index")
    return out, bundle, x0, settings, epsilons, _select_omegas(report.omegas, index)


def cmd_find_orbit(args) -> int:
    setup = _orbit_setup(args)
    if setup is None:
        return MATH_NEGATIVE
    out, bundle, x0, settings, epsilons, selected = setup
    records = []
    for idx, omega in selected:
        problem = orbit_problem(bundle, x0, omega, epsilons[0], settings)
        for eps in epsilons:
            orbit = solve_orbit(replace(problem, epsilon=eps))
            record = {"omega_index": idx, **orbit.to_dict()}
            records.append(record)
            if out is not None:
                stem = f"orbit_w{idx}_eps{_fmt_eps(eps)}"
                with open(os.path.join(out, stem + ".json"), "w") as fh:
                    json.dump(record, fh, indent=2)
                if args.csv:
                    times, states = sample_orbit(bundle, orbit, settings=settings.ode)
                    header = ["t"] + [f"x{i + 1}" for i in range(bundle.dimension)]
                    rows = np.column_stack((times, states)).tolist()
                    write_csv(os.path.join(out, stem + ".csv"), header, rows)
    _print_json({"orbits": records})
    return 0


def cmd_continue(args) -> int:
    setup = _orbit_setup(args)
    if setup is None:
        return MATH_NEGATIVE
    out, bundle, x0, settings, epsilons, selected = setup
    names = [q.name for q in bundle.constraints]
    header = ["epsilon", "period", "closure_residual"]
    header += [f"residual_{name}" for name in names] + ["level_residual", "iterations"]
    families = []
    for idx, omega in selected:
        problem = orbit_problem(bundle, x0, omega, epsilons[-1], settings)
        family = continue_family(problem, epsilons)
        families.append({"omega_index": idx, **family.to_dict()})
        if out is not None:
            with open(os.path.join(out, f"family_w{idx}.json"), "w") as fh:
                json.dump(families[-1], fh, indent=2)
            rows = (
                [eps, orbit.period, orbit.closure_residual]
                + [orbit.constraint_residuals[name] for name in names]
                + [orbit.level_residual, orbit.iterations]
                for eps, orbit in family.rows
            )
            write_csv(os.path.join(out, f"family_w{idx}.csv"), header, rows)
    _print_json({"families": families})
    return 0


def cmd_integrate(args) -> int:
    cfg = _load_config(args.config)
    out = _ensure_out(args)
    bundle = bundle_from_config(cfg)
    x0 = _resolve_equilibrium(bundle, cfg)
    if not 0 < args.t_end < math.inf:
        raise ConfigError("--t-end must be a positive finite time")
    perturbation = cfg.get("perturbation")
    if perturbation is not None:
        delta = np.asarray(perturbation, dtype=float)
        if delta.shape != (bundle.dimension,):
            raise ConfigError("perturbation must match the system dimension")
        x0 = x0 + delta
    settings = _solver_settings(cfg, args).ode
    trajectory = integrate(bundle.field, x0, args.t_end, settings)
    drifts = drift_report(trajectory, bundle.all_quantities())
    if out is not None:
        trajectory.to_csv(os.path.join(out, "trajectory.csv"))
        _print_json(
            {
                "steps_accepted": trajectory.stats.accepted,
                "steps_rejected": trajectory.stats.rejected,
                "drift": {name: value for name, value in drifts},
            }
        )
    else:
        trajectory.to_csv(sys.stdout)
    return 0


def cmd_verify_realization(args) -> int:
    cfg = _load_config(args.config)
    if cfg.get("system") != "rigid_body":
        raise ConfigError("verify-realization only applies to the rigid_body system")
    if args.samples <= 0:
        raise ConfigError("--samples must be positive")
    try:
        params = RigidBodyParams(**cfg.get("params", {}))
    except TypeError as exc:
        raise ConfigError(f"bad rigid body params: {exc}") from None
    rng = np.random.default_rng(args.seed)
    samples = rng.uniform(-1.0, 1.0, size=(args.samples, 3))
    report = verify_poisson_realization(params, samples)
    _print_json(report.to_dict())
    ok = report.max_field_residual < 1e-10 and report.max_casimir_residual < 1e-10
    return 0 if ok else MATH_NEGATIVE


# -- parser ------------------------------------------------------------------


_FLAGS = {
    "--config": dict(required=True, help="path to a JSON run config"),
    "--out": dict(help="directory for output files"),
    "--tol-ode": dict(type=float, help="integrator abs/rel tolerance"),
    "--tol-orbit": dict(type=float, help="shooting residual tolerance"),
    "--csv": dict(action="store_true", help="also write sampled CSV data"),
    "--skip-check": dict(action="store_true", help="skip the hypothesis check"),
    "--omega-index": dict(type=int, help="select one frequency family (default: all)"),
    "--t-end": dict(type=float, required=True, help="integration time"),
    "--seed": dict(type=int, default=0, help="seed of the sample points"),
    "--samples": dict(type=int, default=100, help="number of sample points"),
}

_ORBIT_FLAGS = "--config --out --tol-ode --tol-orbit --skip-check --omega-index"

# name: (handler, help, flags); each subcommand accepts exactly the flags it reads
_COMMANDS = {
    "check": (cmd_check, "verify the orbit-existence conditions", "--config"),
    "find-orbit": (cmd_find_orbit, "solve for periodic orbits by shooting",
                   _ORBIT_FLAGS + " --csv"),
    "continue": (cmd_continue, "continue an orbit family in the level offset", _ORBIT_FLAGS),
    "integrate": (cmd_integrate, "integrate a trajectory and monitor drift",
                  "--config --out --tol-ode --t-end"),
    "verify-realization": (cmd_verify_realization, "check the rigid-body Poisson identities",
                           "--config --seed --samples"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="porbit",
        description="Periodic orbits near degenerate equilibria of conservative polynomial systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (ConfigError, NotAnEquilibrium, NoInertiaRealization, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except PorbitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return MATH_NEGATIVE


def entry():
    sys.exit(main())
