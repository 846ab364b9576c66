"""porbit benchmark: one workload, untraced (end-to-end) or traced (per layer).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: continue_ladder, integrate_long, check_survey (see README.md).
The load is a closed loop: one single-threaded client issues its next
operation only after the previous one has returned.

``--trace 0`` measures the end-to-end metrics: it times cold starts in fresh
interpreters for ``setup_s``, then cycles through the workload's operations
for S seconds. ``--trace 1`` replays a fixed number of leading operations
twice, untraced and then traced, and reports per-layer metrics, the tracing
overhead and micro-timings; its counters depend only on the seed.

Every output is checked; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import timeit
import traceback
from array import array
from time import perf_counter

from common import BENCH, RUN_ROOT, import_porbit
from opcall import run_op
from workloads import WORKLOADS, Outcome


def warm_up(pb, wl):
    """One untimed cold operation, so lazy imports and first calls are done."""
    run_op(pb, wl.cold_op, os.path.join(wl.run_dir, "warm") if wl.uses_out else None)


def call_op(pb, wl, op, key, tracer=None):
    """Time one operation, then verify it outside the timed region."""
    out_dir = os.path.join(wl.run_dir, f"out{key}") if wl.uses_out else None
    span = tracer.open("bench.op") if tracer is not None else None
    error = None
    t0 = perf_counter()
    try:
        result = run_op(pb, op, out_dir)
    except Exception as exc:  # a raising operation is counted as failed; the loop goes on
        result, error = None, exc
    elapsed = perf_counter() - t0
    if span is not None:
        tracer.close(span)
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
    return elapsed, wl.verify(op, result, out_dir)


def setup_seconds(wl, repeats: int = 5) -> float:
    """Median wall time of a fresh interpreter that imports porbit, builds the
    workload's bundles and finishes its first cold operation."""
    spec = os.path.join(wl.run_dir, "cold_spec.json")
    with open(spec, "w") as fh:
        json.dump({"bundles": wl.bundles, "op": wl.cold_op, "uses_out": wl.uses_out}, fh)
    times = []
    for k in range(repeats + 1):
        out_dir = os.path.join(wl.run_dir, f"cold{k}")
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "opcall.py"), spec, out_dir],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
        )
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{proc.stderr.decode()}")
        if k:  # the first start also writes bytecode caches
            times.append(elapsed)
    return statistics.median(times)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def blocked_p99(values, cycle: int) -> float:
    """The 99th percentile of call times, as a median over blocks.

    A run of 5000 calls or more is cut into blocks of 1000 calls, each with
    ten calls beyond its nearest-rank p99. A shorter run cannot resolve a
    p99; its blocks are single cycles of the workload, so the result is the
    median over cycles of each cycle's slowest call. Either way a slow
    stretch of a shared machine moves a few blocks, not the result.
    """
    size = 1000 if len(values) >= 5000 else cycle
    size += -size % cycle
    blocks = [values[i : i + size] for i in range(0, len(values) - size + 1, size)]
    return statistics.median(percentile(block, 99) for block in blocks)


def run_ops(pb, wl, ops, tracer=None):
    """Call each operation in turn; return the durations and the summed outcome."""
    durations, total = array("d"), Outcome(attempted=0)
    for k, op in ops:
        if tracer is not None:
            tracer.op = k
        elapsed, outcome = call_op(pb, wl, op, k, tracer)
        durations.append(elapsed)
        total.add(outcome)
    return durations, total


def untraced(pb, wl, seconds: float):
    setup = setup_seconds(wl)
    warm_up(pb, wl)
    start = perf_counter()
    ops = ((k, wl.ops[k % len(wl.ops)]) for k in itertools.count())
    # stop at the first whole cycle after the time is up, so every run
    # measures the same mix of operations
    ops = itertools.takewhile(
        lambda item: item[0] % wl.cycle or perf_counter() - start < seconds, ops)
    durations, total = run_ops(pb, wl, ops)
    metrics = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "work_per_s": (total.work / sum(durations), "1/s"),
        "op_ms_p50": (1e3 * percentile(durations, 50), "ms"),
        "op_ms_p99": (1e3 * blocked_p99(durations, wl.cycle), "ms"),
    }
    return metrics, total, total.wrong, len(durations)


def micro_timings(pb) -> dict[str, tuple[float, str]]:
    """Single-call costs through public functions on the Clebsch system
    (a1, a2, a3) = (1, 2, 3), near e1 at M = 1; medians of five repeats."""
    import numpy as np

    bundle = pb.build_clebsch(pb.ClebschParams(1.0, 2.0, 3.0))
    e1 = bundle.equilibrium("e1", 1.0)
    x = e1 + np.array([0.0, 0.05, 0.03, 0.0, 0.04, -0.02])
    f, jac = bundle.field.compiled(), bundle.field.compiled_jacobian()
    period = 2.0 * math.pi / math.sqrt(2.0)

    def per_call(fn, number):
        return statistics.median(timeit.repeat(fn, number=number, repeat=5)) / number

    return {
        "micro.field_eval_us": (1e6 * per_call(lambda: f(x), 20000), "us"),
        "micro.jacobian_eval_us": (1e6 * per_call(lambda: jac(x), 20000), "us"),
        "micro.flow_period_ms": (1e3 * per_call(lambda: pb.flow(bundle.field, x, period), 4), "ms"),
        "micro.fwm_period_ms": (
            1e3 * per_call(lambda: pb.flow_with_monodromy(bundle.field, x, period), 2), "ms"),
        "micro.check_theorem_us": (1e6 * per_call(lambda: pb.check_theorem(bundle, e1), 200), "us"),
    }


def traced(pb, wl):
    from tracing import Tracer, layer_metrics

    ops = list(enumerate(wl.ops[: wl.trace_ops]))
    warm_up(pb, wl)
    plain, plain_total = run_ops(pb, wl, ops)
    tracer = Tracer(pb)
    tracer.install()
    try:
        spanned, total = run_ops(pb, wl, [(k + len(ops), op) for k, op in ops], tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, total)
    metrics.update(micro_timings(pb))
    metrics["trace.untraced_s"] = (sum(plain), "s")
    metrics["trace.traced_s"] = (sum(spanned), "s")
    metrics["trace.overhead"] = (sum(spanned) / sum(plain) - 1.0, "ratio")
    return metrics, total, total.wrong + plain_total.wrong, len(ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pb = import_porbit()
    import porbit.cli  # noqa: F401  (binds pb.cli)

    run_dir = os.path.join(RUN_ROOT, str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        wl = WORKLOADS[args.workload](args.seed, run_dir, pb)
        # the generated inputs live for the whole run; keep them out of the
        # garbage collector's scans so they do not slow porbit's collections
        gc.freeze()
        run = traced(pb, wl) if args.trace else untraced(pb, wl, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(RUN_ROOT)
    metrics, total, wrong, n_ops = run
    attempted, failed, correct = total.attempted, total.failed, wrong == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  operations {n_ops}")
    print(f"attempted {attempted}  failed {failed}  fail_ratio {failed / attempted:.6g}"
          f"  correct {correct}")
    if not args.trace:
        print(f"work_per_s is {wl.work_name} on this workload")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
