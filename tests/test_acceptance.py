"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line (run with ``-s``
to see them all) and asserts the criterion at its stated tolerance.

Criterion 3 carries a known-red assertion: the true period of the reference
rigid-body orbit at offset 0.05 is 2 pi (1 + 3 eps^2/4 + O(eps^4)) = 6.29500,
i.e. 0.0118 away from 2 pi, which exceeds the criterion's 0.01 bound. The
value is confirmed by an independent quadrature oracle in
tests/test_orbits.py (rigid_reference_period), so the bound, not the solver,
is at fault. See the decisions ledger for the analysis. The criterion is
asserted as stated rather than weakened.
"""

import math

import numpy as np

import porbit as pb

from conftest import quiet_rigid_body
from oracles import jacobian_fd
from test_orbits import rigid_reference_period

TWO_PI = 2.0 * math.pi
ROOT2 = math.sqrt(2.0)


def _report(n: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _max_level_deviation(bundle, orbit, quantities, targets, n_samples=32):
    _, states = pb.sample_orbit(bundle, orbit, n_samples)
    worst = 0.0
    for q, target in zip(quantities, targets):
        values = q.polynomial.evaluate_many(states)
        worst = max(worst, float(np.max(np.abs(values - target))))
    return worst


def test_criterion_1_rigid_frequency_formula():
    worst_rel = 0.0
    all_ok = True
    for a2 in (-2.0, -1.0, -0.5):
        for gap in (0.5, 1.0, 2.0):
            bundle = quiet_rigid_body(a1=1.0, a2=a2, a3=2.0, l=2.0 - gap)
            for m in (0.5, 1.0, 2.0):
                report = pb.check_theorem(bundle, bundle.equilibrium("e1", m))
                expected = abs(m) * math.sqrt(-a2 * gap)
                rel = abs(report.omegas[0] - expected) / expected
                worst_rel = max(worst_rel, rel)
                all_ok &= report.kernel_dim == 1 and report.verdict and rel < 1e-9
    ok = _report(1, all_ok, f"27-point grid, worst relative omega error {worst_rel:.2e}")
    assert ok


def test_criterion_2_clebsch_frequency_formulas():
    worst_rel = 0.0
    all_ok = True
    for a1, a2, a3 in ((1.0, 2.0, 3.0), (1.0, 1.5, 4.0), (0.5, 2.0, 2.5)):
        bundle = pb.build_clebsch(pb.ClebschParams(a1, a2, a3))
        for m in (0.5, 1.0):
            report = pb.check_theorem(bundle, bundle.equilibrium("e1", m))
            expected = sorted(
                (abs(m) * math.sqrt(a3 - a1), abs(m) * math.sqrt(a2 - a1)),
                reverse=True,
            )
            rels = [
                abs(w - e) / e for w, e in zip(report.omegas, expected)
            ]
            worst_rel = max(worst_rel, *rels)
            all_ok &= (
                len(report.omegas) == 2
                and report.kernel_dim == 2
                and report.verdict
                and max(rels) < 1e-9
            )
    ok = _report(2, all_ok, f"3 parameter sets x 2 masses, worst relative error {worst_rel:.2e}")
    assert ok


def test_criterion_3_rigid_orbit(rigid_bundle, rigid_e1, rigid_family):
    eps, orbit = rigid_family.rows[0]
    assert eps == 0.05
    period_dev = abs(orbit.period - TWO_PI)
    quantities = [rigid_bundle.constraints[0], rigid_bundle.integral]
    targets = [
        rigid_bundle.constraints[0].value(rigid_e1),
        rigid_bundle.integral.value(rigid_e1) + eps**2,
    ]
    level_dev = _max_level_deviation(rigid_bundle, orbit, quantities, targets)

    closure_ok = orbit.closure_residual < 1e-9
    period_ok = period_dev < 0.01
    levels_ok = level_dev < 1e-9
    ok = _report(
        3,
        closure_ok and period_ok and levels_ok,
        f"closure {orbit.closure_residual:.2e}, |T - 2pi| = {period_dev:.4f}, "
        f"level deviation {level_dev:.2e}",
    )
    assert closure_ok, f"closure residual {orbit.closure_residual:.3e} >= 1e-9"
    assert levels_ok, f"level deviation {level_dev:.3e} >= 1e-9"
    assert period_ok, (
        f"|T - 2pi| = {period_dev:.6f} exceeds the stated 0.01 bound; the true "
        f"period at this offset is {rigid_reference_period(eps):.6f} "
        "(independent quadrature oracle), so the bound itself is unattainable. "
        "See notes/decisions.md."
    )


def test_criterion_4_clebsch_dual_families(clebsch_bundle, clebsch_e1, clebsch_families):
    quantities = list(clebsch_bundle.constraints) + [
        clebsch_bundle.extra_quantities[0]  # H
    ]
    results = []
    for omega, linear_period in ((ROOT2, TWO_PI / ROOT2), (1.0, TWO_PI)):
        eps, orbit = clebsch_families[omega].rows[0]
        targets = [q.value(clebsch_e1) for q in quantities]
        # H moves with the integral offset: H = F + a1 C, so H - H(x0) = eps^2
        targets[-1] += eps**2
        level_dev = _max_level_deviation(clebsch_bundle, orbit, quantities, targets)
        period_dev = abs(orbit.period - linear_period)
        results.append((period_dev, level_dev))
    ok = all(p < 0.01 and lv < 1e-9 for p, lv in results)
    detail = ", ".join(
        f"|T - {t:.4f}| = {p:.4f}, H/C/D deviation {lv:.2e}"
        for (p, lv), t in zip(results, (TWO_PI / ROOT2, TWO_PI))
    )
    assert _report(4, ok, detail)


def test_criterion_5_linear_period_trend(rigid_family, clebsch_families):
    all_ok = True
    details = []
    for name, family, t0 in (
        ("rigid", rigid_family, TWO_PI),
        ("clebsch_w0", clebsch_families[ROOT2], TWO_PI / ROOT2),
        ("clebsch_w1", clebsch_families[1.0], TWO_PI),
    ):
        deviations = [abs(T - t0) for T in family.periods()]  # ascending epsilon
        decreasing = deviations[0] < deviations[1] < deviations[2]
        ratios = [b / a for a, b in zip(deviations, deviations[1:])]
        in_band = all(2.5 <= r <= 6.0 for r in ratios)
        all_ok &= decreasing and in_band
        details.append(f"{name} ratios {[f'{r:.2f}' for r in ratios]}")
    assert _report(5, all_ok, "; ".join(details))


def test_criterion_6_condition_iii_boundary():
    good = pb.build_clebsch(pb.ClebschParams(1.0, 2.0, 3.0))
    bad = pb.build_clebsch(pb.ClebschParams(2.0, 1.0, 3.0))
    good_report = pb.check_theorem(good, good.equilibrium("e1", 1.0))
    bad_report = pb.check_theorem(bad, bad.equilibrium("e1", 1.0))
    ok = good_report.condition_iii and not bad_report.condition_iii
    assert _report(
        6,
        ok,
        f"(1,2,3) -> {good_report.condition_iii}, (2,1,3) -> {bad_report.condition_iii}",
    )


def test_criterion_7_poisson_realization():
    params = pb.RigidBodyParams(a1=1.0, a2=-1.0, a3=2.0, l=1.0)
    rng = np.random.default_rng(42)
    samples = rng.uniform(-1.0, 1.0, size=(100, 3))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = pb.verify_poisson_realization(params, samples)
    ok = report.max_field_residual < 1e-10 and report.max_casimir_residual < 1e-10
    assert _report(
        7,
        ok,
        f"field residual {report.max_field_residual:.2e}, "
        f"Casimir residual {report.max_casimir_residual:.2e} over 100 samples",
    )


def test_criterion_8_floquet_structure(rigid_family, clebsch_families):
    all_ok = True
    details = []
    cases = [("rigid", rigid_family, 1)]
    cases += [(f"clebsch_w{i}", clebsch_families[w], 2) for i, w in enumerate((ROOT2, 1.0))]
    for name, family, k in cases:
        for eps, orbit in family.rows:
            mu = orbit.floquet_multipliers
            unit = int(np.sum(np.abs(mu - 1.0) < 1e-4))
            others = mu[np.abs(mu - 1.0) >= 1e-4]
            off_circle = float(np.max(np.abs(np.abs(others) - 1.0))) if others.size else 0.0
            all_ok &= unit >= 2 + k and off_circle < 1e-2
        details.append(f"{name} unit multiplicity >= {2 + k}")
    assert _report(8, all_ok, "; ".join(details))


def test_criterion_9_numerical_hygiene(rigid_bundle, clebsch_bundle):
    rng = np.random.default_rng(2024)
    worst_fd = 0.0
    for bundle in (rigid_bundle, clebsch_bundle):
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, size=bundle.dimension)
            gap = np.max(
                np.abs(
                    pb.jacobian_exact(bundle.field, x) - jacobian_fd(bundle.field, x)
                )
            )
            worst_fd = max(worst_fd, float(gap))
    fd_ok = worst_fd < 1e-6

    worst_drift = 0.0
    for bundle, delta in (
        (rigid_bundle, np.array([0.0, 0.05, 0.0])),
        (clebsch_bundle, np.array([0.0, 0.03, 0.02, 0.0, 0.02, -0.01])),
    ):
        x0 = bundle.equilibrium("e1", 1.0) + delta
        trajectory = pb.integrate(bundle.field, x0, 50.0)
        for _, drift in pb.drift_report(trajectory, bundle.all_quantities()):
            worst_drift = max(worst_drift, drift)
    drift_ok = worst_drift < 1e-9

    e1 = clebsch_bundle.equilibrium("e1", 1.0)
    deterministic = (
        pb.check_theorem(clebsch_bundle, e1).to_json()
        == pb.check_theorem(clebsch_bundle, e1).to_json()
    )

    ok = fd_ok and drift_ok and deterministic
    assert _report(
        9,
        ok,
        f"FD gap {worst_fd:.2e}, drift over [0,50] {worst_drift:.2e}, "
        f"deterministic reports: {deterministic}",
    )
