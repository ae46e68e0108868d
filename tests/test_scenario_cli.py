"""Scenario schema, overrides, output formats, and the command-line tool."""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import lsb_lab.scenario
from lsb_lab.cli import main
from lsb_lab.scenario import (
    Scenario,
    apply_overrides,
    compare_table,
    read_csv,
    run_checks,
    scenario_digest,
    simulate_columns,
    write_csv,
    write_report,
)
from lsb_lab.errors import ScenarioError

RIGID_RAW = {
    "group": "so3",
    "problem": "rigid_body",
    "inertia": {"diag": [1.0, 2.0, 3.0]},
    "connection": [1.0, 1.0, 1.0],
    "initial": {"xi0": [0.8, 0.3, 0.1],
                "x0": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    "horizon": 1.0,
    "step": 0.001,
    "integrator": "rk4",
    "checks": [],
    "outputs": {},
}

RICCATI_RAW = {
    "group": "sl2r",
    "problem": "riccati",
    "inertia": {"diag": [1.0, 1.0, 2.0]},
    "connection": [1.0, 1.0, 1.0],
    "initial": {"x0": 0.5, "p0": -1.0},
    "horizon": 1.0,
    "step": 0.001,
    "integrator": "rk4",
    "checks": [],
    "outputs": {},
}


def _rigid(**patch):
    raw = copy.deepcopy(RIGID_RAW)
    raw.update(patch)
    return raw


def _riccati(**patch):
    raw = copy.deepcopy(RICCATI_RAW)
    raw.update(patch)
    return raw


def _write(tmp_path, raw, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def _field_of(excinfo):
    return str(excinfo.value).split(":")[0]


def test_scenario_parses_minimal_inputs():
    scn = Scenario(_rigid())
    assert scn.problem == "rigid_body"
    npt.assert_allclose(scn.inertia_coefficients, [1.0, 2.0, 3.0])
    scn = Scenario(_riccati())
    assert scn.initial["x0"] == 0.5 and scn.initial["p0"] == -1.0


@pytest.mark.parametrize("patch,field", [
    ({"group": "so4"}, "group"),
    ({"problem": "bending"}, "problem"),
    ({"group": "so3", "problem": "riccati"}, "problem"),
    ({"inertia": {}}, "inertia"),
    ({"inertia": {"diag": [1, 2, 3], "anticommutator": [1, 2, 3]}}, "inertia"),
    ({"inertia": {"diag": [1, 2]}}, "inertia.diag"),
    ({"connection": [1.0, 2.0]}, "connection"),
    ({"step": 2.0}, "step"),
    ({"step": -0.5}, "step"),
    ({"integrator": "leapfrog"}, "integrator"),
    ({"checks": ["unknown_check"]}, "checks[0]"),
    ({"extra_field": 1}, "extra_field"),
    ({"step": 2.0 ** -30}, "step"),  # 1.07e9 samples: refused, not allocated
    # outputs stay under the output directory: no absolute paths, no '..'
    ({"outputs": {"trajectory_csv": "/tmp/t.csv"}}, "outputs.trajectory_csv"),
    ({"outputs": {"report_json": "a/../../r.json"}}, "outputs.report_json"),
])
def test_scenario_error_names_field(patch, field):
    with pytest.raises(ScenarioError) as info:
        Scenario(_rigid(**patch))
    assert _field_of(info) == field


def test_scenario_initial_validation():
    with pytest.raises(ScenarioError) as info:
        Scenario(_rigid(initial={"x0": np.eye(3).tolist()}))
    assert "xi0" in _field_of(info)
    # the state matrix must satisfy the group constraint
    with pytest.raises(ScenarioError) as info:
        Scenario(_rigid(initial={"xi0": [1, 0, 0],
                                 "x0": (2 * np.eye(3)).tolist()}))
    assert "x0" in _field_of(info)
    # complex pairs are rejected on a real-scalar line
    with pytest.raises(ScenarioError) as info:
        Scenario(_riccati(initial={"x0": [0.5, 0.1], "p0": 1.0}))
    assert "x0" in _field_of(info)
    scn = Scenario(_riccati(group="su2",
                            initial={"x0": [0.5, 0.1], "p0": [1.0, 0.0]}))
    assert scn.initial["x0"] == 0.5 + 0.1j


def test_scenario_check_compatibility_rules():
    with pytest.raises(ScenarioError):
        Scenario(_rigid(integrator="euler", checks=["rk4_order"]))
    with pytest.raises(ScenarioError):
        Scenario(_riccati(group="su2",
                          initial={"x0": [0.5, 0.0], "p0": [1.0, 0.0]},
                          checks=["closed_loop_audit"]))
    with pytest.raises(ScenarioError):
        Scenario(_riccati(inertia={"diag": [1.0, 3.0, 2.0]},
                          checks=["closed_form"]))
    with pytest.raises(ScenarioError):
        Scenario(_riccati(connection=[0.0, 1.0, 1.0],
                          checks=["closed_form"]))
    # compare applies the closed_form precondition, naming the field
    for patch, field in (({"inertia": {"diag": [1.0, 3.0, 2.0]}}, "inertia"),
                         ({"connection": [1.0, 0.0, 1.0]}, "connection")):
        with pytest.raises(ScenarioError) as info:
            compare_table(Scenario(_riccati(**patch)))
        assert _field_of(info) == field
    # rigid check names are rejected on the line problem and vice versa
    with pytest.raises(ScenarioError):
        Scenario(_riccati(checks=["energy_conservation"]))
    with pytest.raises(ScenarioError):
        Scenario(_rigid(checks=["cross_ratio"]))


def test_overrides_descend_paths():
    raw = apply_overrides(_riccati(), ["initial.p0=2.5",
                                       "checks=[\"cross_ratio\"]",
                                       "integrator=euler"])
    assert raw["initial"]["p0"] == 2.5
    assert raw["checks"] == ["cross_ratio"]
    assert raw["integrator"] == "euler"
    raw = apply_overrides(_riccati(), [], step=0.01, horizon=2.0)
    assert raw["step"] == 0.01 and raw["horizon"] == 2.0
    with pytest.raises(ScenarioError):
        apply_overrides(_riccati(), ["nonsense"])
    with pytest.raises(ScenarioError):
        apply_overrides(_riccati(), ["missing.path=1"])


def test_digest_tracks_content():
    a = scenario_digest(_riccati())
    b = scenario_digest(_riccati())
    assert a == b and len(a) == 64
    c = scenario_digest(apply_overrides(_riccati(), ["initial.p0=2.5"]))
    assert c != a


def test_simulate_columns_layouts():
    cols = simulate_columns(Scenario(_rigid(step=0.1)))
    names = [name for name, _ in cols]
    assert names[:4] == ["t", "xi_plus", "xi_minus", "xi_zero"]
    assert names[4:] == [f"g_{i}{j}" for i in range(3) for j in range(3)]
    assert all(arr.size == 11 for _, arr in cols)

    cols = simulate_columns(Scenario(_riccati(step=0.1)))
    names = [name for name, _ in cols]
    assert names == ["t", "x", "p", "xi_plus", "xi_minus", "xi_zero"]

    raw = _riccati(group="su2", step=0.1,
                   initial={"x0": [0.5, 0.0], "p0": [1.0, 0.0]})
    names = [name for name, _ in simulate_columns(Scenario(raw))]
    assert "x_re" in names and "x_im" in names and "xi_plus_re" in names


def test_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    cols = [("t", np.arange(5) * 0.1),
            ("x", rng.standard_normal(5) * 1e-7),
            ("p", rng.standard_normal(5) * 1e9)]
    path = tmp_path / "traj.csv"
    write_csv(str(path), cols)
    back = read_csv(str(path))
    assert list(back) == ["t", "x", "p"]
    for name, arr in cols:
        npt.assert_array_equal(back[name], arr)


def test_report_file_shape(tmp_path):
    scn = Scenario(_riccati(checks=["closed_loop_audit"]))
    report = run_checks(scn)
    path = tmp_path / "deep" / "report.json"
    write_report(str(path), report)
    text = path.read_text()
    obj = json.loads(text)
    assert obj["tool_version"]
    assert obj["scenario_digest"] == scenario_digest(scn.raw)
    assert obj["checks"][0]["name"] == "closed_loop_audit"
    assert text == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_run_checks_rigid_all_pass():
    scn = Scenario(_rigid(checks=["equivalence_rigid", "energy_conservation",
                                  "casimir_conservation", "rk4_order",
                                  "action_equality"]))
    report = run_checks(scn)
    assert [c.name for c in report.checks] == [
        "equivalence_rigid.control", "equivalence_rigid.constraint",
        "energy_conservation", "casimir_conservation", "rk4_order",
        "action_equality"]
    assert report.all_passed


def test_run_checks_riccati_honest_failure():
    scn = Scenario(_riccati(checks=["cross_ratio", "action_equality",
                                    "closed_form", "closed_loop_audit"]))
    report = run_checks(scn)
    by_name = {c.name: c for c in report.checks}
    assert by_name["cross_ratio"].passed
    assert by_name["action_equality"].passed
    assert by_name["closed_loop_audit"].passed
    assert not by_name["closed_form"].passed
    assert by_name["closed_form"].max_residual == pytest.approx(2.361051,
                                                                rel=1e-4)


@pytest.mark.xfail(strict=True, reason=(
    "an end-to-end run with every line check passing is not achievable: "
    "closed_form measures the O(1) formula/loop gap on every symmetric "
    "scenario; the other three families do pass"))
def test_run_checks_riccati_all_families_pass():
    scn = Scenario(_riccati(checks=["cross_ratio", "action_equality",
                                    "closed_form", "closed_loop_audit"]))
    assert run_checks(scn).all_passed


def test_compare_table_layout():
    scn = Scenario(_riccati())
    header, rows, escape = compare_table(scn)
    assert header == ("t", "x_num", "x_form", "gap_x", "p_num", "p_form",
                      "gap_p")
    assert escape is None
    assert len(rows) == 21
    assert rows[0][0] == 0.0 and rows[-1][0] == 1.0
    # formula column follows the decaying exponential branch
    assert rows[-1][2] == pytest.approx(0.5 * np.e)


def test_compare_table_truncates_on_divergence():
    scn = Scenario(_riccati(integrator="euler",
                            initial={"x0": 0.5, "p0": 1.0}))
    header, rows, escape = compare_table(scn)
    assert escape == pytest.approx(0.968278, abs=1e-5)
    assert rows[-1][0] <= 0.963 + 1e-12


def test_cli_simulate_writes_csv(tmp_path):
    path = _write(tmp_path, _rigid(
        outputs={"trajectory_csv": "rigid.csv"}))
    code = main(["simulate", path, "--out", str(tmp_path / "runA")])
    assert code == 0
    cols = read_csv(str(tmp_path / "runA" / "rigid.csv"))
    assert cols["t"].size == 1001
    # principal-axis spin: constant control columns
    path = _write(tmp_path, _rigid(
        initial={"xi0": [0.0, 0.0, 0.9],
                 "x0": np.eye(3).tolist()},
        outputs={"trajectory_csv": "axis.csv"}), name="axis.json")
    assert main(["simulate", path, "--out", str(tmp_path / "runB")]) == 0
    cols = read_csv(str(tmp_path / "runB" / "axis.csv"))
    assert np.all(cols["xi_zero"] == 0.9)
    assert np.all(cols["xi_plus"] == 0.0)


def test_cli_verify_exit_codes(tmp_path, capsys):
    rigid = _write(tmp_path, _rigid(checks=["energy_conservation"]))
    assert main(["verify", rigid]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS energy_conservation:")

    line = _write(tmp_path, _riccati(checks=["closed_form"]), name="l.json")
    assert main(["verify", line]) == 2
    out = capsys.readouterr().out
    assert "FAIL closed_form:" in out


def test_cli_verify_rk4_order_at_roundoff_fails_the_check(tmp_path, capsys):
    # at horizon 0.1 the order check's steps (0.01, 0.005, 0.00125) leave
    # terminal errors at roundoff, where no order can be measured
    demo = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                        "scenarios", "rigid_body_so3.json")
    assert main(["verify", demo, "--horizon", "0.1",
                 "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "FAIL rk4_order: residual inf" in out
    assert "PASS energy_conservation" in out
    report = json.loads((tmp_path / "rigid_body_so3_report.json").read_text())
    entry = next(c for c in report["checks"] if c["name"] == "rk4_order")
    assert not entry["passed"] and "roundoff" in entry["details"]


def test_cli_compare_outside_the_symmetric_family(tmp_path, capsys):
    path = _write(tmp_path, _riccati(connection=[0.0, 1.0, 1.0]))
    assert main(["compare", path]) == 1
    assert capsys.readouterr().err.startswith("input error: connection:")
    path = _write(tmp_path, _riccati(inertia={"diag": [1.0, 3.0, 2.0]}))
    assert main(["compare", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: inertia:")
    assert captured.out == ""


def test_cli_input_error_paths(tmp_path, capsys):
    path = _write(tmp_path, _rigid())
    assert main(["simulate", path, "--step", "2.0"]) == 1
    err = capsys.readouterr().err
    assert "step" in err
    assert main(["simulate", str(tmp_path / "absent.json")]) == 1
    err = capsys.readouterr().err
    assert "input error" in err


def test_cli_divergence_exit(tmp_path, capsys):
    path = _write(tmp_path, _riccati(integrator="euler",
                                     initial={"x0": 0.5, "p0": 1.0}))
    assert main(["simulate", path, "--out", str(tmp_path / "d")]) == 3
    err = capsys.readouterr().err
    assert "0.968" in err
    assert main(["compare", path]) == 3
    captured = capsys.readouterr()
    assert "truncated" in captured.out + captured.err


def test_cli_set_overrides_reach_run(tmp_path, capsys):
    path = _write(tmp_path, _riccati(checks=["cross_ratio"]))
    assert main(["verify", path, "--set", "step=0.002"]) == 0
    assert main(["verify", path, "--set", "step=0.3"]) == 1


def test_cli_sweep_runs_every_value(tmp_path, capsys):
    path = _write(tmp_path, _riccati(
        checks=["cross_ratio"],
        outputs={"trajectory_csv": "t.csv", "report_json": "r.json"}))
    code = main(["sweep", path, "--param", "initial.p0",
                 "--values=-1.0,-0.5,2.0",
                 "--out", str(tmp_path / "swp")])
    # the p0=2.0 instance aborts when a family member escapes; the sweep
    # reports it, keeps the other instances, and exits with the worst code
    assert code == 3
    out = capsys.readouterr().out
    heads = [l for l in out.splitlines() if l.startswith("---")]
    assert heads == ["--- initial.p0=-1.0", "--- initial.p0=-0.5",
                     "--- initial.p0=2.0"]
    assert "aborted:" in out
    for v in ("-1.0", "-0.5"):
        d = tmp_path / "swp" / f"initial.p0={v}"
        assert (d / "t.csv").exists() and (d / "r.json").exists()
    assert not (tmp_path / "swp" / "initial.p0=2.0" / "r.json").exists()


def test_cli_outputs_deterministic(tmp_path):
    raw = _riccati(checks=["cross_ratio", "closed_loop_audit"],
                   outputs={"trajectory_csv": "t.csv",
                            "report_json": "r.json"})
    path = _write(tmp_path, raw)
    assert main(["verify", path, "--out", str(tmp_path / "one")]) == 0
    assert main(["verify", path, "--out", str(tmp_path / "two")]) == 0
    for name in ("t.csv", "r.json"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b


def test_console_script_entry_point(tmp_path):
    raw = _rigid(checks=["energy_conservation"])
    path = _write(tmp_path, raw)
    proc = subprocess.run([sys.executable, "-m", "lsb_lab.cli",
                           "verify", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "PASS energy_conservation" in proc.stdout


DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                     "scenarios")
INTEGRATORS = ("integrate_euler_poincare", "reconstruct_group",
               "integrate_extremal", "integrate_riccati")


def _count_integrations(monkeypatch):
    calls = dict.fromkeys(INTEGRATORS, 0)
    for name in INTEGRATORS:
        original = getattr(lsb_lab.scenario, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(lsb_lab.scenario, name, counted)
    return calls


def test_scenario_construction_integrates_nothing(monkeypatch):
    calls = _count_integrations(monkeypatch)
    Scenario(_rigid(checks=["equivalence_rigid", "action_equality"]))
    Scenario(_riccati(checks=["cross_ratio", "closed_form"]))
    assert calls == dict.fromkeys(INTEGRATORS, 0)


@pytest.mark.parametrize("demo,reduced,extremal", [
    ("rigid_body_so3.json", 1, 1),          # reduced flow, manifold lift
    ("riccati_sl2r_symmetric.json", 0, 1),  # line extremal
])
def test_cli_verify_integrates_each_trajectory_once(tmp_path, monkeypatch,
                                                    demo, reduced, extremal):
    calls = _count_integrations(monkeypatch)
    main(["verify", os.path.join(DEMOS, demo), "--out", str(tmp_path)])
    assert calls["integrate_euler_poincare"] == reduced
    assert calls["integrate_extremal"] == extremal


def test_energy_and_casimir_share_one_conservation_call(monkeypatch):
    calls = []
    original = lsb_lab.scenario.check_conservation

    def counted(*args):
        calls.append(1)
        return original(*args)
    monkeypatch.setattr(lsb_lab.scenario, "check_conservation", counted)
    report = run_checks(Scenario(_rigid(
        checks=["casimir_conservation", "energy_conservation"])))
    assert [c.name for c in report.checks] == ["casimir_conservation",
                                               "energy_conservation"]
    assert len(calls) == 1


def test_cli_sweep_integrates_each_value_once(tmp_path, monkeypatch):
    calls = _count_integrations(monkeypatch)
    path = _write(tmp_path, _rigid(
        step=0.01, checks=["energy_conservation", "casimir_conservation"]))
    assert main(["sweep", path, "--param", "initial.xi0.0",
                 "--values=0.5,0.7", "--out", str(tmp_path / "s")]) == 0
    assert calls["integrate_euler_poincare"] == 2


@pytest.mark.parametrize("demo", ["rigid_body_so3", "riccati_sl2r_symmetric"])
def test_cli_verify_csv_equals_simulate_csv(tmp_path, demo):
    path = os.path.join(DEMOS, demo + ".json")
    assert main(["simulate", path, "--out", str(tmp_path / "sim")]) == 0
    main(["verify", path, "--out", str(tmp_path / "ver")])
    name = demo + ".csv"
    assert ((tmp_path / "ver" / name).read_bytes()
            == (tmp_path / "sim" / name).read_bytes())
