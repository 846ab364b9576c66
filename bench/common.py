"""Paths and the porbit import shared by the benchmark's scripts.

The benchmark always measures the porbit sources of the checkout it sits in
(``<root>/src/porbit``), never an installed copy, and refuses to run when
those sources are missing.
"""

from __future__ import annotations

import os
import sys

# One thread for BLAS/LAPACK, set before numpy is first imported anywhere:
# the load is a single closed-loop client and the matrices are tiny.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUN_ROOT = os.path.join(ROOT, ".bench_run")


def import_porbit():
    """Import porbit from ``<root>/src``; exit non-zero if it is not there."""
    init = os.path.join(SRC, "porbit", "__init__.py")
    if not os.path.isfile(init):
        sys.stderr.write(f"benchmark: porbit sources not found at {init}\n")
        raise SystemExit(2)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import porbit

    if os.path.realpath(porbit.__file__) != os.path.realpath(init):
        sys.stderr.write(f"benchmark: imported porbit from {porbit.__file__}, not {init}\n")
        raise SystemExit(2)
    return porbit
