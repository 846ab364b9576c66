"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. ``BENCHMARK.json`` loads and names exactly the workloads defined in
   ``workloads.py``.
2. A short untraced run of every workload prints exactly the declared
   end-to-end metrics.
3. Two traced runs of every workload with the same seed print exactly the
   declared per-layer metrics, and every count that does not depend on the
   machine repeats exactly.

Exits 0 when all checks pass and prints each failure otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from common import ROOT
from workloads import WORKLOADS

SEED = 7
# machine-independent counters that must repeat exactly for one seed
COUNTERS = (
    "poly.field_evals", "poly.jacobian_evals", "poly.polynomials_built",
    "poly.codegen.calls", "poly.codegen.hit_ratio",
    "integrators.flow_with_monodromy.calls", "integrators.flow.calls",
    "integrators.rhs_evals", "integrators.steps_attempted",
    "integrators.steps_accepted", "integrators.steps_rejected",
    "orbits.solve_orbit.calls", "orbits.gn_iterations", "orbits.rows_converged",
    "orbits.rows_failed", "orbits.rows_fallback",
    "calculus.jacobian_exact.calls", "calculus.gradient_exact.calls",
    "calculus.hessian_exact.calls", "spectral.calls", "cli.out_bytes", "trace.spans",
)


def run(bench: dict, workload: str, seed: int, trace: int, seconds: int) -> dict:
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    errors = []
    if {w["name"] for w in bench["workloads"]} != set(WORKLOADS):
        errors.append("declared workloads differ from workloads.py")
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    for workload in WORKLOADS:
        result = run(bench, workload, SEED, 0, 1)
        if set(result["metrics"]) != end_to_end:
            errors.append(f"{workload}: untraced metrics differ from end_to_end")
        first, second = (run(bench, workload, SEED, 1, 1) for _ in range(2))
        for result in (first, second):
            if set(result["metrics"]) != per_layer:
                errors.append(f"{workload}: traced metrics differ from per_layer")
            if not result["correct"]:
                errors.append(f"{workload}: traced run reports an incorrect output")
        for name in COUNTERS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                errors.append(f"{workload}: {name} differs between runs ({a} vs {b})")
        if first["metrics"]["integrators.steps_attempted"]["value"] % 1:
            errors.append(f"{workload}: RHS evaluations are not 2 + 6 per attempted step")
        if (first["attempted"], first["failed"]) != (second["attempted"], second["failed"]):
            errors.append(f"{workload}: attempted/failed differ between traced runs")
        print(f"{workload}: checked", flush=True)
    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
