"""Regenerate ``reference.json``: orbit periods at M = 1 for every ladder rung.

    python3 bench/make_reference.py

Each period comes from an ascending warm-started ladder of ``solve_orbit``
calls (each rung starts from the previous orbit scaled out by the eps
ratio), which converges on every rung. Where porbit's own descending
``continue_family`` also converges, the two must agree to 1e-9 relative, and
every rigid-body period must match the quadrature oracle to 1e-9 relative;
otherwise the script fails and writes nothing.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

from common import BENCH, import_porbit
from workloads import LADDER_FAMILIES, ladder, rigid_period_oracle

AGREE_RTOL = 1e-9


def family_periods(pb, system: dict, omega_index: int, end: float) -> list[list[float]]:
    bundle = pb.bundle_from_config(system)
    x0 = bundle.equilibrium("e1", 1.0)
    omega = pb.check_theorem(bundle, x0).omegas[omega_index]
    rungs = ladder(end)
    problem = pb.orbit_problem(bundle, x0, omega, rungs[0])
    family = pb.continue_family(problem, rungs)
    descending = dict(zip(family.epsilons(), family.periods()))
    rows, prev = [], None
    for eps in rungs:
        sub = replace(problem, epsilon=eps)
        if prev is None:
            orbit = pb.solve_orbit(sub)
        else:
            prev_eps, prev_orbit = prev
            warm = x0 + (eps / prev_eps) * (prev_orbit.point - x0)
            orbit = pb.solve_orbit(sub, x_init=warm, T_init=prev_orbit.period)
        prev = (eps, orbit)
        T = orbit.period
        if eps in descending and abs(descending[eps] - T) > AGREE_RTOL * T:
            raise SystemExit(f"eps {eps}: ascending {T!r} vs descending {descending[eps]!r}")
        rows.append([eps, T])
    return rows


def main() -> int:
    pb = import_porbit()
    families = {}
    for name, system, omega_index, end in LADDER_FAMILIES:
        families[name] = family_periods(pb, system, omega_index, end)
    for eps, T in families["rigid"]:
        oracle = rigid_period_oracle(eps)
        if abs(T - oracle) > AGREE_RTOL * oracle:
            raise SystemExit(f"rigid eps {eps}: period {T!r} vs quadrature {oracle!r}")
    # one [eps, T] row per line, so a regenerated table diffs row by row
    blocks = []
    for name, rows in families.items():
        body = ",\n".join(f"    {json.dumps(row)}" for row in rows)
        blocks.append(f'  {json.dumps(name)}: [\n{body}\n  ]')
    text = '{"families": {\n' + ",\n".join(blocks) + "\n}}\n"
    with open(os.path.join(BENCH, "reference.json"), "w") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
