"""Scenario schema, overrides, output formats, and the command-line tool."""

import copy
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import lsb_lab.scenario
import lsb_lab.verify
from lsb_lab import cli
from lsb_lab.cli import main
from lsb_lab.scenario import (
    Scenario,
    apply_overrides,
    compare_table,
    load_raw,
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
    # one file cannot hold both the report and the trajectory
    ({"outputs": {"trajectory_csv": "x.csv", "report_json": "./x.csv"}},
     "outputs.report_json"),
])
def test_scenario_error_names_field(patch, field):
    with pytest.raises(ScenarioError) as info:
        Scenario(_rigid(**patch))
    assert _field_of(info) == field


HUGE = 10 ** 400  # a valid JSON integer beyond float range


@pytest.mark.parametrize("make,field", [
    (lambda: _rigid(horizon=HUGE), "horizon"),
    (lambda: _riccati(initial={"x0": HUGE, "p0": 1.0}), "initial.x0"),
    (lambda: _riccati(group="su2", initial={"x0": [0.5, HUGE],
                                            "p0": [1.0, 0.0]}),
     "initial.x0"),
    (lambda: _rigid(inertia={"diag": [HUGE, 2.0, 3.0]}),
     "inertia.diag[0]"),
], ids=["horizon", "x0", "x0-imaginary-part", "inertia-diag"])
def test_scenario_huge_integer_is_not_finite(make, field):
    with pytest.raises(ScenarioError) as info:
        Scenario(make())
    assert str(info.value) == f"{field}: must be finite"


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
    # differentiating and integrating along the grid need three samples
    for raw in (_rigid(step=1.0, checks=["energy_conservation",
                                         "equivalence_rigid"]),
                _rigid(step=1.0, checks=["action_equality"]),
                _riccati(step=1.0, checks=["action_equality"])):
        with pytest.raises(ScenarioError) as info:
            Scenario(raw)
        assert _field_of(info) == f"checks[{len(raw['checks']) - 1}]"
    Scenario(_rigid(step=0.5, checks=["equivalence_rigid",
                                      "action_equality"]))
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


@pytest.mark.parametrize("raw,overrides", [
    (RIGID_RAW, ["initial.xi0=[0.1,-0.2,0.3]", "step=0.002"]),
    (RICCATI_RAW, ["initial.p0=2.5", "group=su2",
                   'checks=["cross_ratio","hamiltonian_conservation"]']),
])
def test_digest_is_sha256_of_canonical_json(raw, overrides):
    # the digest comes from the interpreter's built-in SHA-256; hashlib's
    # is the oracle for the same canonical bytes
    raw = apply_overrides(copy.deepcopy(raw), overrides)
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    assert scenario_digest(raw) == hashlib.sha256(
        canonical.encode("utf-8")).hexdigest()


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
    # the exact bytes: header, 17-significant-digit rows, final newline
    rows = zip(*(arr for _, arr in cols))
    expected = "t,x,p\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode("utf-8")


def test_atomic_write_leaves_no_file_on_a_failed_stream(tmp_path):
    def rows():
        yield "a,b\n"
        yield "1,2\n"
        raise RuntimeError("stream broke")

    path = tmp_path / "out" / "t.csv"
    with pytest.raises(RuntimeError, match="stream broke"):
        lsb_lab.scenario._atomic_write(str(path), rows())
    assert os.listdir(tmp_path / "out") == []


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


def test_cli_sweep_survives_an_invalid_value(tmp_path, capsys):
    # the invalid value gets its own input error; the later value still runs
    path = _write(tmp_path, _riccati(checks=["cross_ratio"]))
    code = main(["sweep", path, "--param", "step",
                 "--values=0.002,abc,0.001", "--out", str(tmp_path / "swp")])
    assert code == 1
    out = capsys.readouterr().out
    assert out.count("--- step=") == 3
    assert "--- step=abc\ninput error: step: must be a real number\n" in out
    for v in ("0.002", "0.001"):
        assert (tmp_path / "swp" / f"step={v}" / "trajectory.csv").exists()


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


DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                     "scenarios")


def _output_bytes(directory):
    return {name: (directory / name).read_bytes()
            for name in sorted(os.listdir(directory))}


def test_console_script_entry_point(tmp_path, capsys):
    """The process entry (`python -m lsb_lab.cli`, through `run`) and an
    in-process `main` give the same exit code, stdout and output bytes, on
    one rigid and one riccati su2 scenario."""
    riccati = load_raw(os.path.join(DEMOS, "riccati_sl2r_symmetric.json"))
    riccati.update(group="su2", checks=["cross_ratio", "action_equality",
                                        "hamiltonian_conservation"])
    rigid = load_raw(os.path.join(DEMOS, "rigid_body_su2.json"))
    for name, raw in (("rigid", rigid), ("riccati", riccati)):
        out = tmp_path / name
        argv = ["verify", _write(tmp_path, raw, name + ".json"),
                "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "lsb_lab.cli"] + argv,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout and proc.stderr == ""
        from_process = _output_bytes(out)
        assert len(from_process) == 2  # the CSV and the report
        shutil.rmtree(out)

        assert main(argv) == proc.returncode
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (proc.stdout, proc.stderr)
        assert _output_bytes(out) == from_process


def test_verify_loads_neither_numpy_random_nor_openssl(tmp_path):
    # a riccati verify with the closed-loop audit, the digest and both
    # outputs leaves numpy.random unloaded, and OpenSSL's _hashlib too
    # wherever the interpreter builds its own SHA-256 module
    raw = _riccati(checks=["closed_loop_audit", "hamiltonian_conservation",
                           "action_equality", "cross_ratio"],
                   outputs={"trajectory_csv": "t.csv",
                            "report_json": "r.json"})
    code = ("import importlib.util, json, sys\n"
            "from lsb_lab import cli\n"
            "status = cli.main(sys.argv[1:])\n"
            "loaded = [m for m in ('numpy.random', '_hashlib')"
            " if m in sys.modules]\n"
            "builtin = any(importlib.util.find_spec(m) is not None"
            " for m in ('_sha2', '_sha256'))\n"
            "print(json.dumps([status, builtin, loaded]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify", _write(tmp_path, raw),
         "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    status, builtin, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0
    assert (tmp_path / "out" / "r.json").exists()
    assert "numpy.random" not in loaded
    if builtin:
        assert "_hashlib" not in loaded


def test_main_leaves_gc_state_alone(tmp_path):
    # main runs many times in one test or tracing process; a freeze there
    # would keep every earlier call's garbage for good
    path = _write(tmp_path, _rigid(checks=["energy_conservation"]))
    before = gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()
    assert main(["verify", path, "--out", str(tmp_path / "o")]) == 0
    assert (gc.get_freeze_count(), gc.isenabled(),
            gc.get_threshold()) == before


def test_run_freezes_the_heap_before_dispatch(monkeypatch):
    events = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(cli, "main",
                        lambda argv=None: events.append(("main", argv)) or 2)
    assert cli.run(["verify", "scn.json"]) == 2
    assert events == ["freeze", ("main", ["verify", "scn.json"])]


def test_console_script_targets_run():
    tomllib = pytest.importorskip("tomllib")
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "pyproject.toml")
    with open(path, "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"lsb-lab": "lsb_lab.cli:run"}


def test_package_exports_the_module_lists():
    # each module's __all__ is the one list of its public names; the
    # package concatenates them
    import lsb_lab
    from lsb_lab import actions, dynamics, errors, groups, verify
    names = lsb_lab.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(lsb_lab, name) for name in names)
    assert names == ["__version__", *errors.__all__, *groups.__all__,
                     *actions.__all__, *dynamics.__all__, *verify.__all__]


INTEGRATORS = ("integrate_euler_poincare", "reconstruct_group",
               "integrate_extremal", "integrate_riccati")


def _count_integrations(monkeypatch):
    # every binding a scenario run reaches: the runners' and the checks'
    calls = dict.fromkeys(INTEGRATORS, 0)
    for module in (lsb_lab.scenario, lsb_lab.verify):
        for name in INTEGRATORS:
            if not hasattr(module, name):
                continue

            def counted(*args, _name=name, _original=getattr(module, name),
                        **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


def test_scenario_construction_integrates_nothing(monkeypatch):
    calls = _count_integrations(monkeypatch)
    Scenario(_rigid(checks=["equivalence_rigid", "action_equality"]))
    Scenario(_riccati(checks=["cross_ratio", "closed_form"]))
    assert calls == dict.fromkeys(INTEGRATORS, 0)


@pytest.mark.parametrize("demo,reduced,extremal", [
    ("rigid_body_so3.json", 1, 0),          # reduced flow; its lift
    ("riccati_sl2r_symmetric.json", 0, 1),  # line extremal
])
def test_cli_verify_integrates_each_trajectory_once(tmp_path, monkeypatch,
                                                    demo, reduced, extremal):
    calls = _count_integrations(monkeypatch)
    path = os.path.join(DEMOS, demo)
    main(["verify", path, "--out", str(tmp_path)])
    # rk4_order integrates the reduced flow on three grids of its own
    own = 3 * ("rk4_order" in load_raw(path)["checks"])
    assert calls["integrate_euler_poincare"] == reduced + own
    # one group curve serves the CSV and, carried to (x0, p0) as the
    # lifted extremal, equivalence_rigid and action_equality
    assert calls["reconstruct_group"] == reduced
    assert calls["integrate_extremal"] == extremal
    # the cross-ratio family's four members march as one state
    family = int("cross_ratio" in load_raw(path)["checks"])
    assert calls["integrate_riccati"] == family


def test_diverged_line_extremal_is_integrated_once(tmp_path, monkeypatch,
                                                   capsys):
    # closed_form turns the divergence into a failing entry; the next
    # reader gets the same divergence without a second integration
    calls = _count_integrations(monkeypatch)
    path = os.path.join(DEMOS, "riccati_sl2r_escaping.json")
    code = main(["verify", path, "--out", str(tmp_path),
                 "--set", 'checks=["closed_form", "action_equality"]'])
    assert code == 3
    assert "extremal escaped near t = 0.968" in capsys.readouterr().err
    assert calls["integrate_extremal"] == 1


def _rigid_demo_with_costate(tmp_path, p0):
    raw = load_raw(os.path.join(DEMOS, "rigid_body_so3.json"))
    raw["initial"]["p0"] = p0.tolist()
    raw["checks"] = ["equivalence_rigid"]
    return _write(tmp_path, raw, name="rigid_p0.json")


def test_rigid_costate_is_measured(tmp_path, capsys):
    # equivalence_rigid.constraint measures the scenario's own p0: the
    # momentum x^H p - p^H x pins only the skew part of x0^H p0
    scn = Scenario(load_raw(os.path.join(DEMOS, "rigid_body_so3.json")))
    p_min = lsb_lab.verify.min_norm_costate(
        scn.group, scn.inertia.matrix3, scn.initial["xi0"].coeffs,
        scn.initial["x0"].matrix)
    doubled = _rigid_demo_with_costate(tmp_path, 2.0 * p_min)
    assert main(["verify", doubled, "--out", str(tmp_path / "a")]) == 2
    out = capsys.readouterr().out
    assert "PASS equivalence_rigid.control" in out
    assert "FAIL equivalence_rigid.constraint" in out
    # at x0 = I a symmetric part of p0 leaves the momentum unchanged
    shifted = _rigid_demo_with_costate(tmp_path, p_min + np.eye(3))
    assert main(["verify", shifted, "--out", str(tmp_path / "b")]) == 0
    assert "PASS equivalence_rigid.constraint" in capsys.readouterr().out


def test_rigid_lift_does_not_depend_on_the_integrator(tmp_path, capsys):
    # the lift is the reconstructed group curve whatever integrator made
    # the reduced flow, so its control-equation precheck holds with euler
    path = os.path.join(DEMOS, "rigid_body_so3.json")
    code = main(["verify", path, "--out", str(tmp_path), "--set",
                 "integrator=euler", "--set", 'checks=["action_equality"]'])
    out = capsys.readouterr().out
    assert code == 0, out
    # the gap is the measured O(h^2) stencil error, nonzero at h = 1e-3
    line, = (ln for ln in out.splitlines() if "action_equality" in ln)
    assert line.startswith("PASS action_equality: residual ")
    assert 0.0 < float(line.split()[3]) <= 1e-5
    # the momentum constraint still measures euler's own O(h) error in
    # the reduced flow: J xi(t) leaves the transported momentum by 1e-4
    code = main(["verify", path, "--out", str(tmp_path), "--set",
                 "integrator=euler", "--set",
                 'checks=["equivalence_rigid", "action_equality"]'])
    out = capsys.readouterr().out
    assert code == 2
    assert "PASS equivalence_rigid.control" in out
    assert "FAIL equivalence_rigid.constraint: residual 1.01" in out
    assert "PASS action_equality" in out


def test_cli_compare_keeps_the_diverged_prefix(monkeypatch, capsys):
    # the table's surviving prefix comes from the run that diverged
    calls = _count_integrations(monkeypatch)
    code = main(["compare", os.path.join(DEMOS,
                                         "riccati_sl2r_escaping.json")])
    assert code == 3
    assert "table truncated to the surviving prefix" in capsys.readouterr().out
    assert calls["integrate_extremal"] == 1


@pytest.mark.parametrize("command", ["compare", "verify"])
def test_cli_formula_pole_at_zero_costate(tmp_path, capsys, command):
    # p0 = 0 zeroes the closed-form constant C+, so the sl2r formulas have
    # their pole at t = 0; the formulas are evaluated on the whole grid
    code = main([command, os.path.join(DEMOS, "riccati_sl2r_symmetric.json"),
                 "--set", "initial.p0=0", "--out", str(tmp_path)])
    assert code == 3
    assert "formula pole at t = 0" in capsys.readouterr().err


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
