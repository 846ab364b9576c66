import json
import math
import os

import pytest

from porbit.cli import main

RIGID_PARAMS = {"a1": 1.0, "a2": -1.0, "a3": 2.0, "l": 1.0}
CLEBSCH_PARAMS = {"a1": 1.0, "a2": 2.0, "a3": 3.0}


@pytest.fixture(autouse=True)
def _silence_model_warnings(recwarn):
    # the reference rigid-body parameter set triggers the a1 consistency
    # warning by design; CLI behavior is what is under test here
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "system": "rigid_body",
        "params": dict(RIGID_PARAMS),
        "equilibrium": {"family": "e1", "M": 1.0},
        "epsilons": [0.05],
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check --------------------------------------------------------------------


def test_check_rigid_verdict_true(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out, _ = run(capsys, "check", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is True
    assert report["omegas"] == [1.0]


def test_check_clebsch_condition_iii_failure(tmp_path, capsys):
    cfg = write_config(
        tmp_path, system="clebsch", params={"a1": 2.0, "a2": 1.0, "a3": 3.0}
    )
    code, out, _ = run(capsys, "check", "--config", cfg)
    assert code == 1
    report = json.loads(out)
    assert report["condition_iii"] is False
    assert report["verdict"] is False


def test_check_zero_m_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, equilibrium={"family": "e1", "M": 0.0})
    code, _, err = run(capsys, "check", "--config", cfg)
    assert code == 2
    assert "M must be nonzero" in err


def test_check_missing_config_file(capsys):
    code, _, err = run(capsys, "check", "--config", "/nonexistent/cfg.json")
    assert code == 2
    assert "not found" in err


# -- find-orbit ---------------------------------------------------------------


def test_find_orbit_rigid_reference(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = str(tmp_path / "out")
    code, out, _ = run(capsys, "find-orbit", "--config", cfg, "--out", out_dir, "--csv")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["orbits"]) == 1
    record = payload["orbits"][0]
    # the true period at this offset is 2 pi (1 + 3 eps^2 / 4 + ...) = 6.29500
    from test_orbits import rigid_reference_period

    assert record["period"] == pytest.approx(rigid_reference_period(0.05), abs=1e-8)
    assert abs(record["period"] - 2.0 * math.pi) < 0.02
    stem = os.path.join(out_dir, "orbit_w0_eps0.05")
    assert os.path.exists(stem + ".json")
    with open(stem + ".json") as fh:
        assert json.load(fh)["period"] == record["period"]
    with open(stem + ".csv") as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "t,x1,x2,x3"
    assert len(lines) == 65  # header + 64 samples


def test_find_orbit_clebsch_fast_family(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        system="clebsch",
        params=dict(CLEBSCH_PARAMS),
        omega_index=0,
    )
    code, out, _ = run(capsys, "find-orbit", "--config", cfg)
    assert code == 0
    record = json.loads(out)["orbits"][0]
    assert record["omega_index"] == 0
    assert abs(record["period"] - 4.4429) < 1e-2


def test_find_orbit_csv_without_out_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, _, err = run(capsys, "find-orbit", "--config", cfg, "--csv")
    assert code == 2
    assert "--out" in err


def test_find_orbit_fails_closed_on_bad_hypotheses(tmp_path, capsys):
    cfg = write_config(tmp_path, params={**RIGID_PARAMS, "a2": 1.0})
    code, _, err = run(capsys, "find-orbit", "--config", cfg)
    assert code == 1
    assert "hypotheses" in err


# -- continue -----------------------------------------------------------------


def test_continue_rigid_family(tmp_path, capsys):
    cfg = write_config(tmp_path, epsilons=[0.05, 0.1, 0.2])
    out_dir = str(tmp_path / "fam")
    code, out, _ = run(capsys, "continue", "--config", cfg, "--out", out_dir)
    assert code == 0
    family = json.loads(out)["families"][0]
    periods = [row["orbit"]["period"] for row in family["rows"]]
    epsilons = [row["epsilon"] for row in family["rows"]]
    assert epsilons == [0.05, 0.1, 0.2]
    two_pi = 2.0 * math.pi
    deviations = [abs(p - two_pi) for p in periods]
    assert deviations[0] < deviations[1] < deviations[2]
    # the CSV holds the JSON rows' numbers, each cell written as its repr
    names = list(family["rows"][0]["orbit"]["constraint_residuals"])
    header = ["epsilon", "period", "closure_residual"]
    header += [f"residual_{name}" for name in names] + ["level_residual", "iterations"]
    expected = [",".join(header)]
    for row in family["rows"]:
        orbit = row["orbit"]
        cells = [row["epsilon"], orbit["period"], orbit["closure_residual"]]
        cells += [orbit["constraint_residuals"][name] for name in names]
        cells += [orbit["level_residual"], orbit["iterations"]]
        expected.append(",".join(map(repr, cells)))
    with open(os.path.join(out_dir, "family_w0.csv")) as fh:
        assert fh.read() == "\n".join(expected) + "\n"


def test_continue_empty_epsilons_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, epsilons=[])
    code, _, err = run(capsys, "continue", "--config", cfg)
    assert code == 2
    assert "epsilons" in err


def test_continue_clebsch_both_families(tmp_path, capsys):
    cfg = write_config(
        tmp_path, system="clebsch", params=dict(CLEBSCH_PARAMS), epsilons=[0.05, 0.1]
    )
    out_dir = str(tmp_path / "fams")
    code, out, _ = run(capsys, "continue", "--config", cfg, "--out", out_dir)
    assert code == 0
    families = json.loads(out)["families"]
    assert [f["omega_index"] for f in families] == [0, 1]
    assert os.path.exists(os.path.join(out_dir, "family_w0.json"))
    assert os.path.exists(os.path.join(out_dir, "family_w1.json"))


# -- integrate ----------------------------------------------------------------


def test_integrate_writes_trajectory(tmp_path, capsys):
    cfg = write_config(tmp_path, perturbation=[0.0, 0.05, 0.0])
    out_dir = str(tmp_path / "traj")
    code, out, _ = run(
        capsys, "integrate", "--config", cfg, "--t-end", "10.0", "--out", out_dir
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["drift"]["C_alpha"] < 1e-10
    assert summary["drift"]["F"] < 1e-10
    with open(os.path.join(out_dir, "trajectory.csv")) as fh:
        header = fh.readline().strip()
    assert header == "t,x1,x2,x3"


def test_integrate_requires_positive_time(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, _, err = run(capsys, "integrate", "--config", cfg, "--t-end", "-1.0")
    assert code == 2
    assert "t-end" in err


@pytest.mark.parametrize("t_end", ["nan", "inf"])
def test_integrate_rejects_a_non_finite_time(t_end, tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out, err = run(capsys, "integrate", "--config", cfg, "--t-end", t_end)
    assert code == 2
    assert out == ""
    assert "--t-end must be a positive finite time" in err


@pytest.mark.parametrize(
    "command, flag, message",
    [
        ("integrate", "--tol-ode", "tolerances must be positive and finite"),
        ("find-orbit", "--tol-ode", "tolerances must be positive and finite"),
        ("find-orbit", "--tol-orbit", "tol_orbit must be positive and finite"),
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_is_usage_error(command, flag, message, value, tmp_path, capsys):
    cfg = write_config(tmp_path)
    argv = [command, "--config", cfg, flag, value]
    if command == "integrate":
        argv += ["--t-end", "1.0"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_integrate_stdout_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out, _ = run(capsys, "integrate", "--config", cfg, "--t-end", "1.0")
    assert code == 0
    assert out.startswith("t,x1,x2,x3\n")


# -- verify-realization -------------------------------------------------------


def test_verify_realization_reference_set(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out, _ = run(
        capsys, "verify-realization", "--config", cfg, "--samples", "100", "--seed", "42"
    )
    assert code == 0
    report = json.loads(out)
    assert report["max_field_residual"] < 1e-10
    assert report["max_casimir_residual"] < 1e-10
    assert report["samples"] == 100


def test_verify_realization_rejects_zero_a3(tmp_path, capsys):
    cfg = write_config(tmp_path, params={**RIGID_PARAMS, "a3": 0.0})
    code, _, err = run(capsys, "verify-realization", "--config", cfg)
    assert code == 2
    assert "alpha undefined" in err


def test_verify_realization_rejects_zero_samples(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, _, err = run(capsys, "verify-realization", "--config", cfg, "--samples", "0")
    assert code == 2
    assert "samples" in err


def test_verify_realization_rejects_other_systems(tmp_path, capsys):
    cfg = write_config(tmp_path, system="clebsch", params=dict(CLEBSCH_PARAMS))
    code, _, err = run(capsys, "verify-realization", "--config", cfg)
    assert code == 2
    assert "rigid_body" in err


# -- cross-cutting ------------------------------------------------------------


@pytest.mark.parametrize(
    "command, flag",
    [
        ("check", "--out"),
        ("check", "--seed"),
        ("check", "--tol-ode"),
        ("check", "--tol-orbit"),
        ("find-orbit", "--seed"),
        ("continue", "--seed"),
        ("continue", "--csv"),
        ("integrate", "--seed"),
        ("integrate", "--tol-orbit"),
        ("verify-realization", "--out"),
        ("verify-realization", "--tol-ode"),
        ("verify-realization", "--tol-orbit"),
    ],
)
def test_a_flag_the_subcommand_does_not_read_is_usage_error(command, flag, tmp_path, capsys):
    cfg = write_config(tmp_path)
    value = {"--out": [str(tmp_path / "out")], "--seed": ["1"], "--csv": []}.get(flag, ["1e-3"])
    argv = [command, "--config", cfg, flag, *value]
    if command == "integrate":
        argv += ["--t-end", "1.0"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert flag in err


def test_integrate_requires_t_end(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out, err = run(capsys, "integrate", "--config", cfg)
    assert code == 2
    assert out == ""
    assert "--t-end" in err


def test_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    _, first, _ = run(capsys, "check", "--config", cfg)
    _, second, _ = run(capsys, "check", "--config", cfg)
    assert first == second
    _, first, _ = run(
        capsys, "verify-realization", "--config", cfg, "--samples", "50", "--seed", "7"
    )
    _, second, _ = run(
        capsys, "verify-realization", "--config", cfg, "--samples", "50", "--seed", "7"
    )
    assert first == second
    ladder = write_config(tmp_path, name="ladder.json", epsilons=[0.05, 0.1])
    _, first, _ = run(capsys, "continue", "--config", ladder)
    _, second, _ = run(capsys, "continue", "--config", ladder)
    assert first == second


def test_inline_round_trip_matches_builtin_report(tmp_path, capsys):
    import porbit as pb

    cfg_path = write_config(tmp_path, system="clebsch", params=dict(CLEBSCH_PARAMS))
    code, builtin_out, _ = run(capsys, "check", "--config", cfg_path)
    assert code == 0

    bundle = pb.build_clebsch(pb.ClebschParams(**CLEBSCH_PARAMS))
    inline = pb.bundle_to_config(bundle)
    inline["equilibrium"] = {"family": "e1", "M": 1.0}
    # inline definitions carry no equilibrium families, so spell the point out
    inline["equilibrium"] = {"point": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]}
    inline_path = tmp_path / "inline.json"
    inline_path.write_text(json.dumps(inline))
    code, inline_out, _ = run(capsys, "check", "--config", str(inline_path))
    assert code == 0
    assert inline_out == builtin_out


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_omega_index_out_of_range(tmp_path, capsys):
    cfg = write_config(tmp_path, omega_index=5)
    code, _, err = run(capsys, "find-orbit", "--config", cfg)
    assert code == 2
    assert "omega_index" in err
