"""One benchmark operation: a single call into porbit.

An operation is a JSON-able dict. ``{"argv": [...]}`` runs the command line
in-process through ``porbit.cli.main`` with stdout captured; ``{"cfg": {...}}``
runs ``bundle_from_config`` -> ``check_theorem`` -> ``to_dict`` as library
calls. The closed loop in ``run.py`` and the cold-start probe below share this
one definition, so set-up time measures the same call the loop times.

Run as a script it is the cold-start probe:

    python3 bench/opcall.py SPEC.json OUT_DIR

It imports porbit in a fresh interpreter, builds the workload's bundles from
``SPEC["bundles"]``, runs ``SPEC["op"]`` once, and exits 0 only if the
operation succeeded.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys


def run_op(pb, op: dict, out_dir: str | None = None):
    """Run one operation; return ``(exit_code, output)``.

    ``output`` is the captured stdout text for a CLI operation and the
    report dict for a check.
    """
    if "argv" in op:
        argv = list(op["argv"])
        if out_dir is not None:
            argv += ["--out", out_dir]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pb.cli.main(argv)
        return code, buf.getvalue()
    import numpy as np

    cfg = op["cfg"]
    bundle = pb.bundle_from_config(cfg)
    eq = cfg["equilibrium"]
    if "family" in eq:
        x0 = bundle.equilibrium(eq["family"], eq["M"])
    else:
        x0 = np.asarray(eq["point"], dtype=float)
    return 0, pb.check_theorem(bundle, x0).to_dict()


def main(argv: list[str]) -> int:
    spec_path, out_dir = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    from common import import_porbit

    pb = import_porbit()
    import porbit.cli  # noqa: F401  (binds pb.cli)

    for cfg in spec["bundles"]:
        pb.bundle_from_config(cfg)
    code, _ = run_op(pb, spec["op"], out_dir if spec.get("uses_out") else None)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
