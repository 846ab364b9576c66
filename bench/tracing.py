"""In-memory spans around porbit's public functions, for the traced run.

The tracer replaces porbit's public functions with timing wrappers, in every
porbit module that holds a reference to them, and restores them afterwards.
Nothing inside porbit changes. Each span records its name, start, end,
parent span and operation id. The closures returned by
``PolynomialVectorField.compiled()`` and ``compiled_jacobian()`` are wrapped
with call counters, and ``Polynomial`` construction is counted.

``layer_metrics`` turns the spans into the per-layer metrics declared in
``BENCHMARK.json``; a span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

FAIL_REASONS = ("left_level_set", "period_collapsed", "no_convergence", "integration", "other")


def reason_code(message: str) -> str:
    """Map a porbit failure message to one of ``FAIL_REASONS``."""
    for text, code in (
        ("left level set", "left_level_set"),
        ("period collapsed", "period_collapsed"),
        ("no convergence", "no_convergence"),
        ("integration failed", "integration"),
    ):
        if text in message:
            return code
    return "other"


SPANNED = {
    "cli": ("main",),
    "systems": ("bundle_from_config",),
    "calculus": ("jacobian_exact", "gradient_exact", "hessian_exact"),
    "spectral": (
        "eigen", "kernel", "row_space", "subspace_equal", "imaginary_pairs",
        "restricted_hessian", "is_positive_definite", "oscillation_plane",
    ),
    "checker": ("check_theorem",),
    "integrators": ("integrate", "flow", "flow_with_monodromy", "drift_report"),
    "orbits": ("orbit_problem", "initial_guess", "solve_orbit", "continue_family"),
}


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "children", "failed", "evals", "result")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.children = []
        self.failed = False
        self.evals = (0, 0)
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, pb):
        self.pb = pb
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = -1
        self.evals = [0, 0]  # field closure calls, Jacobian closure calls
        self.polynomials = 0
        self.codegen_hits = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(name, self.stack[-1] if self.stack else None, self.op)
        if span.parent is not None:
            span.parent.children.append(span)
        self.spans.append(span)
        self.stack.append(span)
        span.evals = (self.evals[0], self.evals[1])
        span.start = perf_counter()
        return span

    def close(self, span: Span):
        span.end = perf_counter()
        self.stack.pop()
        span.evals = (self.evals[0] - span.evals[0], self.evals[1] - span.evals[1])

    def _spanned(self, name, fn, keep_result=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                tracer.close(span)
            if keep_result:
                span.result = result
            return result

        return wrapper

    def _counted(self, fn, slot: int):
        evals = self.evals

        def counted(x):
            evals[slot] += 1
            return fn(x)

        return counted

    def _codegen(self, name, fn, cache_attr: str, slot: int):
        tracer = self

        @functools.wraps(fn)
        def compiled(field):
            hit = getattr(field, cache_attr) is not None
            span = tracer.open(name)
            try:
                closure = fn(field)
            finally:
                tracer.close(span)
            tracer.codegen_hits += hit
            return tracer._counted(closure, slot)

        return compiled

    def _count_polynomials(self, init):
        tracer = self

        @functools.wraps(init)
        def counted_init(poly, *args, **kwargs):
            tracer.polynomials += 1
            init(poly, *args, **kwargs)

        return counted_init

    # -- install / uninstall -------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for name, module in list(sys.modules.items()):
            if name != "porbit" and not name.startswith("porbit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _replace_method(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        import porbit.cli  # noqa: F401  (every porbit module is loaded before patching)

        pb = self.pb
        for layer, names in SPANNED.items():
            module = sys.modules[f"porbit.{layer}"]
            for name in names:
                original = getattr(module, name)
                keep = name in ("integrate", "continue_family")
                self._replace_everywhere(original, self._spanned(f"{layer}.{name}", original, keep))
        field_cls = pb.PolynomialVectorField
        self._replace_method(field_cls, "compiled", self._codegen(
            "poly.compiled", field_cls.compiled, "_f", 0))
        self._replace_method(field_cls, "compiled_jacobian", self._codegen(
            "poly.compiled_jacobian", field_cls.compiled_jacobian, "_jac", 1))
        self._replace_method(pb.Trajectory, "to_csv", self._spanned(
            "integrators.to_csv", pb.Trajectory.to_csv))
        self._replace_method(pb.SystemBundle, "verify_conservation", self._spanned(
            "systems.verify_conservation", pb.SystemBundle.verify_conservation))
        self._replace_method(pb.Polynomial, "__init__", self._count_polynomials(
            pb.Polynomial.__init__))

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)


# -- metrics -----------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def gn_iterations(solve: Span) -> int:
    """Gauss-Newton residual evaluations inside one ``solve_orbit`` span.

    The single-segment solver integrates once per evaluation. The two-segment
    fallback starts with one ``flow`` to its midpoint and then integrates two
    half-period segments per evaluation, so shooting integrations after the
    first ``flow`` child count in pairs.
    """
    single, paired, fallback = 0, 0, False
    for child in solve.children:
        if child.name == "integrators.flow":
            fallback = True
        elif child.name == "integrators.flow_with_monodromy":
            if fallback:
                paired += 1
            else:
                single += 1
    return single + paired // 2


def layer_metrics(tracer: Tracer, total) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced run.

    ``total`` is the summed ``Outcome`` of the traced operations; it supplies
    the benchmark-side counts (gate misses, bytes written under --out).
    """
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s.duration for s in spans(name))

    def self_time(name):
        return sum(s.duration - sum(c.duration for c in s.children) for s in spans(name))

    m: dict[str, tuple[float, str]] = {}

    # integrators
    fwm, flows, integrations = (
        spans("integrators.flow_with_monodromy"), spans("integrators.flow"),
        spans("integrators.integrate"),
    )
    # a variational RHS evaluates the Jacobian closure once; the plain RHS the field
    per_call_rhs = [s.evals[1] for s in fwm] + [s.evals[0] for s in flows + integrations]
    rhs = sum(per_call_rhs)
    attempted = sum((r - 2) / 6 for r in per_call_rhs if r)
    accepted = sum(s.result.stats.accepted for s in integrations if s.result is not None)
    rejected = sum(s.result.stats.rejected for s in integrations if s.result is not None)
    integrator_s = sum(
        busy(f"integrators.{name}") for name in ("flow_with_monodromy", "flow", "integrate"))
    m["integrators.flow_with_monodromy.s"] = (busy("integrators.flow_with_monodromy"), "s")
    m["integrators.flow_with_monodromy.calls"] = (len(fwm), "count")
    m["integrators.flow.s"] = (busy("integrators.flow"), "s")
    m["integrators.flow.calls"] = (len(flows), "count")
    m["integrators.integrate.s"] = (busy("integrators.integrate"), "s")
    m["integrators.rhs_evals"] = (rhs, "count")
    m["integrators.steps_attempted"] = (attempted, "count")
    m["integrators.steps_accepted"] = (accepted, "count")
    m["integrators.steps_rejected"] = (rejected, "count")
    m["integrators.accept_ratio"] = (_ratio(accepted, accepted + rejected), "ratio")
    m["integrators.us_per_step"] = (1e6 * _ratio(integrator_s, attempted), "us")
    m["integrators.to_csv.s"] = (busy("integrators.to_csv"), "s")
    m["integrators.drift_report.s"] = (busy("integrators.drift_report"), "s")

    # orbits
    solves = spans("orbits.solve_orbit")
    families = [s.result for s in spans("orbits.continue_family") if s.result is not None]
    converged = sum(len(f.rows) for f in families)
    failed = sum(len(f.failures) for f in families)
    reasons: dict[str, int] = {}
    for f in families:
        for message in f.failures.values():
            code = reason_code(message)
            reasons[code] = reasons.get(code, 0) + 1
    m["orbits.continue_family.s"] = (busy("orbits.continue_family"), "s")
    m["orbits.solve_orbit.calls"] = (len(solves), "count")
    m["orbits.solve_orbit.self_s"] = (self_time("orbits.solve_orbit"), "s")
    m["orbits.rows_converged"] = (converged, "count")
    m["orbits.rows_failed"] = (failed, "count")
    m["orbits.rows_fallback"] = (
        sum(o.used_fallback for f in families for _, o in f.rows), "count")
    m["orbits.gn_iterations"] = (sum(gn_iterations(s) for s in solves), "count")
    m["orbits.fwm_per_row"] = (_ratio(len(fwm), converged + failed), "ratio")
    m["orbits.converged_ratio"] = (
        _ratio(sum(not s.failed for s in solves), len(solves)), "ratio")
    for code in FAIL_REASONS:
        m[f"orbits.fail.{code}"] = (reasons.get(code, 0), "count")
    m["orbits.fail.gate"] = (total.gate_misses, "count")

    # poly
    codegen = spans("poly.compiled") + spans("poly.compiled_jacobian")
    m["poly.field_evals"] = (tracer.evals[0], "count")
    m["poly.jacobian_evals"] = (tracer.evals[1], "count")
    m["poly.polynomials_built"] = (tracer.polynomials, "count")
    m["poly.codegen.calls"] = (len(codegen), "count")
    m["poly.codegen.s"] = (sum(s.duration for s in codegen), "s")
    m["poly.codegen.hit_ratio"] = (_ratio(tracer.codegen_hits, len(codegen)), "ratio")

    # calculus
    for name in ("jacobian_exact", "gradient_exact", "hessian_exact"):
        m[f"calculus.{name}.s"] = (busy(f"calculus.{name}"), "s")
        m[f"calculus.{name}.calls"] = (len(spans(f"calculus.{name}")), "count")

    # systems, spectral, checker, cli
    m["systems.bundle_from_config.s"] = (busy("systems.bundle_from_config"), "s")
    m["systems.verify_conservation.s"] = (busy("systems.verify_conservation"), "s")
    outer_spectral = [
        s for s in tracer.spans
        if s.name.startswith("spectral.")
        and not (s.parent is not None and s.parent.name.startswith("spectral."))
    ]
    m["spectral.s"] = (sum(s.duration for s in outer_spectral), "s")
    m["spectral.calls"] = (len(outer_spectral), "count")
    m["checker.check_theorem.self_s"] = (self_time("checker.check_theorem"), "s")
    m["cli.self_s"] = (self_time("cli.main"), "s")
    m["cli.out_bytes"] = (total.out_bytes, "B")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m
