"""Tests of the benchmark itself: generator determinism, oracle rejection of
corrupted outputs, self-time arithmetic and the metric lists.

Run from the repository root with `python3 -m pytest bench/tests -q`.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import workloads
from tracing import Span, Tracer, self_times, union_length

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_byte_identical_per_seed(tmp_path, workload):
    ops_a = workloads.generate(workload, 7, tmp_path / "a")
    ops_b = workloads.generate(workload, 7, tmp_path / "b")
    workloads.generate(workload, 8, tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert len(names) == len(ops_a)
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes()
        assert a != (tmp_path / "c" / name).read_bytes()
    assert [op.argv("s", "o") for op in ops_a] == \
        [op.argv("s", "o") for op in ops_b]


def test_pole_ops_have_their_pole_inside_the_horizon(tmp_path):
    ops = workloads.generate("riccati_long", 3, tmp_path)
    poles = [op for op in ops if op.kind == "pole"]
    assert len(poles) * 4 == len(ops)
    for op in poles:
        x0, p0 = op.scenario["initial"]["x0"], op.scenario["initial"]["p0"]
        # x(t) = tan(arctan x0 + p0 (1 + x0^2) t) reaches +-pi/2 at t*
        phase = math.atan(x0) + p0 * (1 + x0 * x0) * op.t_star
        assert abs(abs(phase) - math.pi / 2) < 1e-12
        assert op.t_star < op.scenario["horizon"]


def _run_first(kind, workload, tmp_path, extra=()):
    ops = workloads.generate(workload, 0, tmp_path / "scn")
    op = next(o for o in ops if o.kind == kind)
    out_dir = tmp_path / "out"
    code, out, err = run.run_cli_inprocess(
        op.argv(str(tmp_path / "scn"), str(out_dir)) + list(extra))
    return op, code, out, err, out_dir


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real op of each passing kind, run through the library."""
    runs = {}
    for kind, workload in (("rigid", "rigid_long"),
                           ("riccati", "riccati_long"),
                           ("sweep", "rigid_long")):
        runs[kind] = _run_first(kind, workload,
                                tmp_path_factory.mktemp(kind))
    return runs


def _copy(out_dir, tmp_path):
    dest = tmp_path / "copy"
    shutil.copytree(out_dir, dest)
    return dest


def _perturb_csv(path, column, row, delta):
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("kind", ["rigid", "riccati", "sweep"])
def test_oracles_accept_real_outputs(outputs, kind):
    op, code, out, err, out_dir = outputs[kind]
    assert oracles.judge(op, code, out, err, str(out_dir)) == []


@pytest.mark.parametrize("kind,column", [("rigid", "xi_plus"),
                                         ("rigid", "g_01"),
                                         ("riccati", "p"),
                                         ("riccati", "xi_zero")])
def test_oracles_reject_one_perturbed_csv_value(outputs, tmp_path, kind,
                                                column):
    op, code, out, err, out_dir = outputs[kind]
    copy = _copy(out_dir, tmp_path)
    csv = copy / op.scenario["outputs"]["trajectory_csv"]
    header = csv.read_text().split("\n", 1)[0].split(",")
    name = column if column in header else column + "_re"
    _perturb_csv(csv, name, 1000, 1e-7)
    assert oracles.judge(op, code, out, err, str(copy))


def test_sweep_oracle_rejects_one_perturbed_value(outputs, tmp_path):
    op, code, out, err, out_dir = outputs["sweep"]
    copy = _copy(out_dir, tmp_path)
    label = f"{workloads.SWEEP_PARAM}={op.sweep_values[5]}"
    csv = copy / label / op.scenario["outputs"]["trajectory_csv"]
    # sweeps run at h = 0.01, where the drift tolerance 10 h^4 is 1e-7
    _perturb_csv(csv, "xi_zero", 30, 1e-5)
    problems = oracles.judge(op, code, out, err, str(copy))
    assert problems and all(p.startswith(label) for p in problems)


@pytest.mark.parametrize("kind,wrong", [("rigid", 2), ("riccati", 0),
                                        ("riccati", 3), ("sweep", 1)])
def test_oracles_reject_a_wrong_exit_code(outputs, kind, wrong):
    op, code, out, err, out_dir = outputs[kind]
    assert any("expected" in p
               for p in oracles.judge(op, wrong, out, err, str(out_dir)))


def test_report_oracle_rejects_a_flipped_pass_flag(outputs, tmp_path):
    op, code, out, err, out_dir = outputs["riccati"]
    copy = _copy(out_dir, tmp_path)
    report = copy / op.scenario["outputs"]["report_json"]
    data = json.loads(report.read_text())
    for entry in data["checks"]:
        entry["passed"] = True
    data["all_passed"] = True
    report.write_text(json.dumps(data))
    assert oracles.judge(op, code, out, err, str(copy))


@pytest.fixture
def pole_op(tmp_path):
    ops = workloads.generate("riccati_long", 0, tmp_path / "scn")
    return next(o for o in ops if o.kind == "pole")


def test_pole_oracle_accepts_the_exact_escape_time(pole_op, tmp_path):
    err = f"diverged near t = {pole_op.t_star:.6g}: extremal escaped\n"
    assert oracles.judge(pole_op, 3, "", err, str(tmp_path / "none")) == []


@pytest.mark.parametrize("shift", [0.01, -0.01])
def test_pole_oracle_rejects_a_wrong_escape_time(pole_op, tmp_path, shift):
    err = f"diverged near t = {pole_op.t_star + shift:.6g}: escaped\n"
    assert oracles.judge(pole_op, 3, "", err, str(tmp_path / "none"))


def test_pole_oracle_rejects_a_run_that_exits_0(pole_op, tmp_path):
    # a run that steps over the pole: tan solution sampled on the grid, with
    # the feedback controls, written as the CLI would
    scn = pole_op.scenario
    x0, p0 = scn["initial"]["x0"], scn["initial"]["p0"]
    c = p0 * (1 + x0 * x0)
    n = int(round(scn["horizon"] / scn["step"])) + 1
    rows = ["t,x,p,xi_plus,xi_minus,xi_zero"]
    for k in range(n):
        t = k * scn["step"]
        x = math.tan(math.atan(x0) + c * t)
        p = c / (1 + x * x)
        rows.append(",".join("%.17g" % v for v in (t, x, p, p, -p * x * x,
                                                   p * x)))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / scn["outputs"]["trajectory_csv"]).write_text(
        "\n".join(rows) + "\n")
    problems = oracles.judge(pole_op, 0, "", "", str(out_dir))
    assert any("exit 0" in p for p in problems)
    assert any("through the pole" in p for p in problems)
    assert not any("tan solution" in p for p in problems)


def test_union_length_merges_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 20)], 0, 10) == 7
    assert union_length([], 0, 10) == 0
    assert union_length([(11, 12)], 0, 10) == 0


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0, 1),
        Span(1, "a", 1.0, 4.0, 0, 0, 1),
        Span(2, "b", 3.0, 6.0, 0, 0, 2),    # overlaps a on another thread
        Span(3, "c", 2.0, 3.0, 1, 0, 1),
        Span(4, "d", 9.0, 12.0, 0, 0, 2),   # runs past its parent
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}


def test_parallel_efficiency_and_useful_ratio():
    tracer = Tracer()
    tracer.spans = [Span(0, "cli.main", 0.0, 10.0, None, 0, 1),
                    Span(1, "x", 0.0, 10.0, 0, 0, 2),
                    Span(2, "x", 0.0, 5.0, 0, 0, 3)]
    assert tracer.parallel_efficiency({0}) == 0.75
    tracer.calls = {0: ["a", "a", "b"], 1: ["a"]}
    assert tracer.useful_integration_ratio() == 0.75


def test_tracer_counts_every_binding_and_uninstalls(tmp_path):
    import lsb_lab.dynamics as dynamics
    import lsb_lab.scenario as scenario
    original = dynamics.integrate_euler_poincare
    ops = workloads.generate("rigid_long", 0, tmp_path / "scn")
    argv = ops[0].argv(str(tmp_path / "scn"), str(tmp_path / "out"))
    tracer = Tracer()
    tracer.install()
    try:
        code, _, _ = tracer.run_op(0, "cli.main", run.run_cli_inprocess,
                                   argv + ["--step", "0.01"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert scenario.integrate_euler_poincare is original
    assert dynamics.integrate_euler_poincare is original
    steps = tracer.amounts["dynamics.integrate_euler_poincare.steps"]
    # run_checks (50), rk4_order (10 + 20 + 80), simulate_columns (50)
    assert steps == 210
    assert tracer.counts["dynamics.euler_poincare_rhs"] == 4 * steps
    assert tracer.counts["groups.bracket"] == 4 * steps
    # verify integrates the reduced flow twice, once per caller
    assert tracer.useful_integration_ratio() < 1.0
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "scenario.Scenario", "scenario.run_checks",
            "verify.check_rk4_order", "dynamics.reconstruct_group",
            "dynamics.integrate_extremal.manifold"} <= names
    selfs = self_times(tracer.spans)
    assert all(v >= 0 for v in selfs.values())


def test_tail_percentile():
    assert run.tail(list(range(1, 31))) == (20, 100 * 20 / 30)
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:        40 |         40 |       numpy.fft\n"
            "import time:       200 |        300 |     scipy.linalg\n"
            "import time:       100 |       1000 |   scipy\n"
            "import time:        70 |         70 |   scipy.special\n"
            "import time:        10 |       1500 | lsb_lab.groups\n"
            "import time:        50 |       2000 | lsb_lab\n")
    assert run.parse_importtime(text) == (2000e-6, 1070e-6)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rigid_long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_runs_without_the_program():
    # the yardstick must cost the same whatever the program does
    code = ("import runpy, sys; runpy.run_path(sys.argv[1], "
            "run_name='__main__'); assert 'lsb_lab' not in sys.modules")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(run.REFERENCE)],
        cwd=ROOT / "bench",
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == "1999998"
