"""The three workloads: seeded inputs, correctness gates, and work units.

Every input is generated here from the seed; porbit only sees the generated
configs. Each workload is a list of operations (see ``opcall.py``) that the
closed loop in ``run.py`` cycles through, plus ``verify``, which checks one
operation's output against its gates outside the timed region.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

RIGID = {"system": "rigid_body", "params": {"a1": -1.0, "a2": -1.0, "a3": 2.0, "l": 1.0}}
CLEBSCH = {"system": "clebsch", "params": {"a1": 1.0, "a2": 2.0, "a3": 3.0}}
TOL_ORBIT = 1e-10  # porbit's default SolverSettings.tol_orbit
PERIOD_RTOL = 1e-8
DRIFT_MAX = 1e-9
OMEGA_RTOL = 1e-9


@dataclass
class Outcome:
    """Verified result of one operation.

    ``failed`` counts porbit failures and gate misses. ``wrong`` counts the
    outputs that contradict a reference (a period, frequency, verdict, report
    or row count); any of those makes the run incorrect. A quality gate
    missed by a true value, such as a reported closure residual above
    ``tol_orbit``, fails the operation without making the run incorrect.
    ``gate_misses`` counts the failures that are gate misses rather than
    porbit failures.
    """

    attempted: int
    failed: int = 0
    wrong: int = 0
    work: float = 0.0
    out_bytes: int = 0
    gate_misses: int = 0

    def add(self, other: "Outcome"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.work += other.work
        self.out_bytes += other.out_bytes
        self.gate_misses += other.gate_misses


def _write_json(path: str, payload) -> str:
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


class Workload:
    name = ""
    work_name = ""  # what work_per_s counts on this workload
    trace_ops = 0  # leading operations replayed by the traced run
    cycle = 1  # the timed loop stops only after a whole cycle of operations
    uses_out = False  # whether each operation writes under a fresh --out

    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.ops: list[dict] = []
        self.cold_op: dict = {}
        self.bundles: list[dict] = []

    def verify(self, op: dict, result, out_dir: str | None) -> Outcome:
        raise NotImplementedError


# -- continue_ladder ----------------------------------------------------------


def ladder(end: float) -> list[float]:
    """Rungs at M = 1: 0.05, 0.10, ... below 0.95 * end, then 0.95 * end."""
    top = 0.95 * end
    rungs = [round(0.05 * i, 10) for i in range(1, 20) if 0.05 * i < top - 1e-9]
    if abs(rungs[-1] - top) > 1e-9:
        rungs.append(top)
    return rungs


LADDER_FAMILIES = (
    # name, system config, omega_index (omegas sort descending), family end at M = 1
    ("rigid", RIGID, 0, 1.0 / math.sqrt(2.0)),
    ("clebsch_slow", CLEBSCH, 1, 1.0 / math.sqrt(2.0)),
    ("clebsch_fast", CLEBSCH, 0, 1.0),
)


def rigid_period_oracle(eps: float) -> float:
    """Rigid-body period on the reference parameters at M = 1, by quadrature.

    On C_alpha = C_alpha(e1), F = eps^2 the loop reduces to
    T = 4 int_0^{pi/2} dphi / sqrt(1 - 2 eps^2 + eps^2 sin^2 phi),
    evaluated here by 200-point Gauss-Legendre.
    """
    nodes, weights = np.polynomial.legendre.leggauss(200)
    phi = (nodes + 1.0) * math.pi / 4.0
    integrand = 1.0 / np.sqrt(1.0 - 2.0 * eps**2 + eps**2 * np.sin(phi) ** 2)
    return float(4.0 * (math.pi / 4.0) * np.sum(weights * integrand))


def load_reference() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path) as fh:
        ref = json.load(fh)
    for name, _, _, end in LADDER_FAMILIES:
        rungs = [row[0] for row in ref["families"][name]]
        if rungs != ladder(end):
            raise ValueError(f"reference.json rungs for {name} do not match the ladder")
    return ref


class ContinueLadder(Workload):
    """``porbit continue`` on three families, each over an ascending eps ladder.

    The seed draws ``draws`` scales M in [0.87, 1.13] per family, and the
    run repeats those ladders as one cycle, so every run covers the same
    inputs whatever its speed and only the seed varies M. Orbits
    obey orbit(lambda M, lambda eps) = lambda orbit with period T / lambda, so
    the rungs are M times the M = 1 ladder and T * M must match the M = 1
    reference table. Failed rows are kept and counted: they are a known defect
    of the descending continuation, not an input error.
    """

    name = "continue_ladder"
    work_name = "orbits_per_s"
    draws = 2  # a ladder's cost depends on M; two draws per family narrow the spread
    trace_ops = len(LADDER_FAMILIES)
    cycle = draws * len(LADDER_FAMILIES)

    def __init__(self, seed, run_dir, pb):
        super().__init__(run_dir)
        self.reference = load_reference()
        rng = np.random.default_rng([seed, 1])
        configs = []
        for k, (name, system, omega_index, end) in enumerate(LADDER_FAMILIES * self.draws):
            M = float(rng.uniform(0.87, 1.13))
            cfg = {
                **system,
                "equilibrium": {"family": "e1", "M": M},
                "omega_index": omega_index,
                "epsilons": [M * e for e in ladder(end)],
            }
            configs.append(cfg)
            path = _write_json(os.path.join(run_dir, f"ladder{k}.json"), cfg)
            self.ops.append(
                {"argv": ["continue", "--config", path], "family": name, "M": M,
                 "epsilons": cfg["epsilons"]}
            )
        # cold start: the first ladder cut to its first rung; a whole ladder is
        # seconds of shooting, not set-up
        cold = {**configs[0], "epsilons": configs[0]["epsilons"][:1]}
        path = _write_json(os.path.join(run_dir, "cold.json"), cold)
        self.cold_op = {"argv": ["continue", "--config", path]}
        self.bundles = [RIGID, CLEBSCH]
        self.oracle = [rigid_period_oracle(e) for e in ladder(LADDER_FAMILIES[0][3])]

    def verify(self, op, result, out_dir):
        rungs = op["epsilons"]
        out = Outcome(attempted=len(rungs))
        rows = {}
        if result is not None and result[0] == 0:
            family = json.loads(result[1])["families"][0]
            rows = {repr(float(r["epsilon"])): r["orbit"] for r in family["rows"]}
        M = op["M"]
        reference = self.reference["families"][op["family"]]
        for i, eps in enumerate(rungs):
            key = repr(float(eps))
            orbit = rows.get(key)
            if orbit is None:
                out.failed += 1
                continue
            TM = orbit["period"] * M
            expected = [reference[i][1]]
            if op["family"] == "rigid":
                expected.append(self.oracle[i])
            residuals = [orbit["closure_residual"], orbit["level_residual"]]
            residuals += list(orbit["constraint_residuals"].values())
            period_ok = all(abs(TM - T) <= PERIOD_RTOL * T for T in expected)
            if period_ok and max(residuals) <= TOL_ORBIT:
                out.work += 1.0
            else:
                out.failed += 1
                out.wrong += int(not period_ok)
                out.gate_misses += 1
        return out


# -- integrate_long -----------------------------------------------------------


INTEGRATE_SYSTEMS = (
    # name, system config, dimension, t_end, and the oscillation planes at e1
    # as (i, j, c_i, c_j) with F - F(e1) = (c_i x_i^2 + c_j x_j^2) / 2 on the
    # plane. The rigid body runs longer so both kinds of call cost about the
    # same and the latency median does not sit between two modes.
    ("rigid", RIGID, 3, 160.0, ((1, 2, 2.0, 2.0),)),
    ("clebsch", CLEBSCH, 6, 100.0, ((1, 5, 1.0, 1.0), (2, 4, 2.0, 1.0))),
)


class IntegrateLong(Workload):
    """``porbit integrate --t-end T --out DIR`` from seeded perturbations of e1.

    Each perturbation puts the same integral offset into every oscillation
    plane at e1, at a seeded phase, so the step count per unit of model time
    hardly depends on the seed. Moving along the other coordinates would
    land on a neighbouring equilibrium. Every call writes to a fresh
    directory: overwriting an existing file would time the file system's
    truncate, not porbit.
    """

    name = "integrate_long"
    work_name = "sim_t_per_s"
    trace_ops = 6
    cycle = len(INTEGRATE_SYSTEMS)
    uses_out = True
    n_ops = 40

    def __init__(self, seed, run_dir, pb):
        super().__init__(run_dir)
        rng = np.random.default_rng([seed, 2])
        for k in range(self.n_ops):
            _, system, n, t_end, planes = INTEGRATE_SYSTEMS[k % len(INTEGRATE_SYSTEMS)]
            delta = np.zeros(n)
            for i, j, c_i, c_j in planes:
                phase = rng.uniform(0.0, 2.0 * math.pi)
                delta[i] = 0.07 * math.cos(phase) / math.sqrt(c_i)
                delta[j] = 0.07 * math.sin(phase) / math.sqrt(c_j)
            cfg = {**system, "equilibrium": {"family": "e1", "M": 1.0},
                   "perturbation": [float(v) for v in delta]}
            path = _write_json(os.path.join(run_dir, f"integrate{k}.json"), cfg)
            self.ops.append(
                {"argv": ["integrate", "--config", path, "--t-end", repr(t_end)], "t_end": t_end}
            )
        self.cold_op = {"argv": self.ops[0]["argv"]}
        self.bundles = [RIGID, CLEBSCH]

    def verify(self, op, result, out_dir):
        out = Outcome(attempted=1)
        csv_path = os.path.join(out_dir, "trajectory.csv")
        try:
            ok = result is not None and result[0] == 0
            if ok:
                report = json.loads(result[1])
                with open(csv_path, "rb") as fh:
                    data = fh.read()
                out.out_bytes = len(data)
                rows = data.count(b"\n") - 1  # minus the header
                out.wrong = int(rows != report["steps_accepted"] + 1)
                ok = not out.wrong and all(d <= DRIFT_MAX for d in report["drift"].values())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if ok:
            out.work = op["t_end"]
        else:
            out.failed = 1
            out.gate_misses = int(result is not None and result[0] == 0)
        return out


# -- check_survey -------------------------------------------------------------


def _rigid_case(rng):
    """Random rigid-body coefficients with every frequency factor away from 0."""
    while True:
        a2 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0))
        a3 = float((1.0 if rng.random() < 0.75 else -1.0) * rng.uniform(0.3, 3.0))
        b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0))  # a3 - l
        a1 = -(a2 + a3)
        if abs(a1) >= 0.3:
            return {"a1": a1, "a2": a2, "a3": a3, "l": a3 - b}


def _rigid_expected(p, family, M):
    """Closed-form omegas and verdict for the rigid body at e1, e2, e3."""
    a1, a2, a3, b = p["a1"], p["a2"], p["a3"], p["a3"] - p["l"]
    square = {"e1": -a2 * b, "e2": -a1 * b, "e3": -a1 * a2}[family]
    omegas = [abs(M) * math.sqrt(square)] if square > 0 else []
    # F is critical only on the e1 axis, where its Hessian restricted to the
    # Casimir's tangent plane is diag(a3, -a2 a3 / b).
    verdict = family == "e1" and square > 0 and a3 > 0
    return omegas, verdict


def _clebsch_case(rng):
    """Three positive coefficients, pairwise at least 0.3 apart, in random order."""
    values = np.cumsum(rng.uniform(0.3, 1.5, size=3)) + rng.uniform(0.0, 0.7)
    a = rng.permutation(values)
    return {"a1": float(a[0]), "a2": float(a[1]), "a3": float(a[2])}


def _clebsch_expected(p, family, M):
    """At e_j the frequencies are |M| sqrt(a_k - a_j) for every a_k > a_j."""
    a = [p["a1"], p["a2"], p["a3"]]
    j = int(family[1]) - 1
    omegas = sorted(
        (abs(M) * math.sqrt(a[k] - a[j]) for k in range(3) if k != j and a[k] > a[j]),
        reverse=True,
    )
    # F = H - a1 C is critical at e1 only, and definite there iff a1 is smallest.
    verdict = family == "e1" and len(omegas) == 2
    return omegas, verdict


class CheckSurvey(Workload):
    """``bundle_from_config`` -> ``check_theorem`` -> ``to_dict`` over seeded configs.

    Half of the configs name a built-in system (one third rigid body, two
    thirds Clebsch); each is followed by its inline twin from
    ``bundle_to_config``, whose report must equal the built-in's.
    Library calls rather than ``cli.main``: the CLI rebuilds its argparse
    parser on every call, which would cost more than the 0.5 ms check.
    """

    name = "check_survey"
    work_name = "checks_per_s"
    n_pairs = 1000
    trace_ops = 2 * n_pairs
    cycle = 2

    def __init__(self, seed, run_dir, pb):
        super().__init__(run_dir)
        rng = np.random.default_rng([seed, 3])
        for k in range(self.n_pairs):
            family = str(rng.choice(["e1", "e2", "e3"], p=[0.42, 0.29, 0.29]))
            M = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
            # a Clebsch check costs about twice a rigid-body one; an even mix
            # would put the latency median between the two modes
            if rng.random() < 1.0 / 3.0:
                system, params = "rigid_body", _rigid_case(rng)
                omegas, verdict = _rigid_expected(params, family, M)
            else:
                system, params = "clebsch", _clebsch_case(rng)
                omegas, verdict = _clebsch_expected(params, family, M)
            builtin = {"system": system, "params": params,
                       "equilibrium": {"family": family, "M": M}}
            bundle = pb.bundle_from_config(builtin)
            twin = {**pb.bundle_to_config(bundle),
                    "equilibrium": {"point": [float(v) for v in bundle.equilibrium(family, M)]}}
            for cfg, is_twin in ((builtin, False), (twin, True)):
                self.ops.append({"cfg": cfg, "pair": k, "twin": is_twin,
                                 "omegas": omegas, "verdict": verdict})
        self.cold_op = {"cfg": self.ops[0]["cfg"]}
        self._builtin_reports: dict[int, str] = {}

    def verify(self, op, result, out_dir):
        out = Outcome(attempted=1)
        if result is None:
            out.failed = 1
            return out
        report = result[1]
        omegas = report["omegas"]
        ok = (
            len(omegas) == len(op["omegas"])
            and all(abs(w - e) <= OMEGA_RTOL * e for w, e in zip(omegas, op["omegas"]))
            and report["verdict"] == op["verdict"]
        )
        # kept as one string per pair, so the benchmark's own heap stays small
        text = json.dumps(report, sort_keys=True)
        if op["twin"]:
            ok = ok and text == self._builtin_reports.get(op["pair"])
        else:
            self._builtin_reports[op["pair"]] = text
        if ok:
            out.work = 1.0
        else:
            out.failed = out.wrong = out.gate_misses = 1
        return out


WORKLOADS = {w.name: w for w in (ContinueLadder, IntegrateLong, CheckSurvey)}
