"""lsb-lab benchmark: seeded scenario files through the real command line.

Usage (from the repository root):

    python3 bench/run.py --workload rigid_long --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

`--trace 0` times untraced CLI processes (`python -m lsb_lab.cli` with
PYTHONPATH=src, one at a time, closed loop), each between two runs of the
fixed reference process (reference.py), and prints the end-to-end metrics
with every time scaled by the reference runs around it.  `--trace 1` drives `lsb_lab.cli.main` in this process over the same
ops, once untraced and once with every layer wrapped, and prints the
per-layer metrics.  Every op's output goes through the oracles in
oracles.py first.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  bench/NOTES.md explains the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from importlib import metadata
from pathlib import Path

# One BLAS thread, here and in every CLI child: the library's matrices are
# 2x2 and 3x3, so BLAS helper threads only spin, and with the sweep pool they
# would put more busy threads than cores on a small machine.  Set before numpy
# is first imported (by oracles.py).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNTER_TARGETS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
REFERENCE = Path(__file__).resolve().parent / "reference.py"

# Every end-to-end time is scaled to the host speed at which reference.py
# takes REF_NOMINAL_S: wall * REF_NOMINAL_S / (mean of the reference runs
# just before and just after it).
REF_NOMINAL_S = 0.5
SETUP_SAMPLES = 7        # fresh `import lsb_lab` timings for setup_s
IMPORTTIME_REPEATS = 3   # fresh interpreters under -X importtime
TAIL_BEYOND = 10         # ops that must lie beyond the tail percentile
OP_TIMEOUT_S = 60.0     # an op normally takes 1-3 s
UNTRACED_SHARE = 0.4     # of --seconds, for the untraced in-process pass

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("samples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]
# per-layer metric groups, by span or counter name
_STEP_SPANS = ("dynamics.integrate_euler_poincare",
               "dynamics.reconstruct_group",
               "dynamics.integrate_extremal.line")
_CALL_SPANS = ("dynamics.integrate_euler_poincare",
               "dynamics.integrate_riccati")
_COUNTERS = tuple(name for _, _, name in COUNTER_TARGETS)
_CHECK_SPANS = tuple(f"verify.{c}" for c in (
    "check_equivalence_rigid", "check_conservation", "check_rk4_order",
    "check_action_equality", "check_cross_ratio", "check_closed_form",
    "check_closed_loop_audit"))
_SCENARIO_SPANS = tuple(f"scenario.{f}" for f in (
    "Scenario", "run_checks", "simulate_columns", "write_csv",
    "write_report"))
_SELF_SPANS = (_STEP_SPANS + ("dynamics.integrate_extremal.manifold",
                              "dynamics.integrate_riccati")
               + _CHECK_SPANS + _SCENARIO_SPANS + ("cli.main",))
PER_LAYER = (
    [("setup.import_lsb_lab_s", "s"), ("setup.import_scipy_s", "s"),
     ("dynamics.integrate_euler_poincare.calls", "count")]
    + [(f"{base}.{m}", u) for base in _STEP_SPANS
       for m, u in (("self_s", "s"), ("steps", "count"),
                    ("us_per_step", "us"))]
    + [(f"{name}.calls", "count") for name in _COUNTERS]
    + [("dynamics.integrate_extremal.manifold.self_s", "s"),
       ("dynamics.integrate_riccati.self_s", "s"),
       ("dynamics.integrate_riccati.calls", "count"),
       ("dynamics.integrations", "count"),
       ("dynamics.useful_integration_ratio", "ratio")]
    + [(f"{name}.self_s", "s") for name in _CHECK_SPANS + _SCENARIO_SPANS]
    + [("scenario.write_csv.bytes", "B"),
       ("cli.main.self_s", "s"),
       ("cli.sweep.parallel_efficiency", "ratio"),
       ("trace.overhead_ratio", "ratio")]
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (program missing, set-up failed)."""


def _cli_env():
    env = dict(os.environ)
    env.pop("LSB_LAB_THREADS", None)  # sweep keeps its default pool
    env["PYTHONPATH"] = str(SRC)
    return env


def _preflight():
    if not (SRC / "lsb_lab" / "cli.py").is_file():
        raise BenchmarkError(f"no lsb_lab package under {SRC}; run from a "
                             "checkout of the repository")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def _fresh_python(args, env):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable] + args, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=OP_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchmarkError(f"`python {' '.join(args)}` failed: "
                             f"{proc.stderr.strip()[-300:]}")
    return wall, proc.stderr


def _is_scipy(name):
    return name == "scipy" or name.startswith("scipy.")


def parse_importtime(stderr):
    """(cumulative import time of lsb_lab, cumulative time of the outermost
    scipy imports, everything they pull in included), in seconds, from
    `python -X importtime` output."""
    entries = []  # (depth, name, cumulative us), children before parents
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _self, cum, name = line[len("import time:"):].split("|")
        try:
            cum_us = int(cum)
        except ValueError:
            continue  # the header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), cum_us))
    lsb = scipy = 0
    for i, (depth, name, cum_us) in enumerate(entries):
        if name == "lsb_lab":
            lsb = cum_us
        if not _is_scipy(name):
            continue
        parent = next((e for e in entries[i + 1:] if e[0] < depth), None)
        if parent is None or not _is_scipy(parent[1]):
            scipy += cum_us
    return lsb * 1e-6, scipy * 1e-6


def measure_importtime(env):
    _fresh_python(["-c", "import lsb_lab"], env)
    splits = [parse_importtime(
        _fresh_python(["-X", "importtime", "-c", "import lsb_lab"], env)[1])
        for _ in range(IMPORTTIME_REPEATS)]
    return (statistics.median(s[0] for s in splits),
            statistics.median(s[1] for s in splits))


def tail(values):
    """(value, percentile) at the highest percentile with at least
    TAIL_BEYOND values beyond it; the largest value when there are fewer."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n


class Record:
    """One executed op: its outcome and what the oracles found."""

    def __init__(self, index, op, op_dir, wall, code, stdout, stderr,
                 rss_kb=None, tag="op", ref=0.0):
        self.index, self.op, self.op_dir, self.tag = index, op, op_dir, tag
        self.wall, self.code, self.ref = wall, code, ref
        self.ref_index = None  # of the reference run just before it
        self.stdout, self.stderr, self.rss_kb = stdout, stderr, rss_kb
        self.problems = []

    @property
    def out_dir(self):
        return os.path.join(self.op_dir, "out")

    def judge(self):
        self.problems = oracles.judge(self.op, self.code, self.stdout,
                                      self.stderr, self.out_dir)

    def to_dict(self):
        return {"op": f"{self.tag}{self.index}", "kind": self.op.kind,
                "scenario": self.op.scenario_file, "wall_s": self.wall,
                "reference_run": self.ref_index,
                "exit": self.code, "max_rss_kb": self.rss_kb,
                "problems": self.problems}


def run_cli_process(op, scn_dir, op_dir, env, index, ref=0.0):
    """Run one op as a fresh CLI process; its peak RSS comes from the
    child's own rusage.  `ref` is the wall time of the reference run made
    just before it."""
    os.makedirs(op_dir)
    out_path = os.path.join(op_dir, "stdout.txt")
    err_path = os.path.join(op_dir, "stderr.txt")
    argv = op.argv(scn_dir, os.path.join(op_dir, "out"))
    with open(out_path, "w") as fo, open(err_path, "w") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "lsb_lab.cli"] + argv,
                                stdout=fo, stderr=fe, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: never leave the child running
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fo, open(err_path) as fe:
        stdout, stderr = fo.read(), fe.read()
    return Record(index, op, op_dir, wall, proc.returncode, stdout, stderr,
                  usage.ru_maxrss, ref=ref)


def run_cli_inprocess(argv):
    """Drive lsb_lab.cli.main(argv); uncaught exceptions become exit 1 with
    the traceback on stderr, as in a fresh process."""
    from lsb_lab import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _closed_loop(ops, block, seconds, run_one, between_blocks=None):
    """Run ops back to back until their wall times, with those of their
    reference runs, add up to `seconds`, ending on a block boundary.
    `between_blocks(progress)` runs after each block and is not timed.
    Returns (records, summed wall time of ops and reference runs)."""
    records = []
    busy = 0.0
    while True:
        record = run_one(ops[len(records) % len(ops)], len(records))
        records.append(record)
        busy += record.wall + record.ref
        if len(records) % block == 0:
            if busy >= seconds:
                return records, busy
            if between_blocks is not None:
                between_blocks(busy / seconds)


def _judge_all(records):
    for r in records:
        r.judge()
    failed = [r for r in records if r.problems]
    # Pole ops are expected to fail until divergence on the line is detected
    # at the exact pole; any other failure makes the run incorrect.
    correct = all(r.op.kind == "pole" for r in failed)
    return failed, correct


def end_to_end(workload, seed, seconds, work):
    """Untraced CLI processes, each between two reference runs: the
    end-to-end metrics."""
    env = _cli_env()
    ref_env = dict(env)
    del ref_env["PYTHONPATH"]  # the reference never sees the program
    ref_args = [str(REFERENCE)]
    refs = []  # wall times of the reference runs, in the order they ran

    def reference():
        refs.append(_fresh_python(ref_args, ref_env)[0])
        return len(refs) - 1

    def scale(wall, k):
        # the wall time at the host speed where reference.py takes
        # REF_NOMINAL_S; every timed process runs between reference runs k
        # and k + 1
        return wall * REF_NOMINAL_S / ((refs[k] + refs[k + 1]) / 2)

    import_args = ["-c", "import lsb_lab"]
    _fresh_python(import_args, env)  # writes the bytecode cache; not timed
    _fresh_python(ref_args, ref_env)  # warms the page cache; not timed
    setup = []  # (import wall, index of the reference run before it)

    def sample_setup(progress):
        # fresh imports spread evenly over the run, so that setup_s sees
        # the same machine as the ops
        while len(setup) < 1 + (SETUP_SAMPLES - 1) * min(1.0, progress):
            k = reference()
            setup.append((_fresh_python(import_args, env)[0], k))

    scn_dir = os.path.join(work, "scenarios")
    ops = workloads.generate(workload, seed, scn_dir)
    block = len(workloads.WORKLOADS[workload].block)

    def run_one(op, i):
        k = reference()
        record = run_cli_process(op, scn_dir,
                                 os.path.join(work, f"op{i:04d}"), env, i,
                                 refs[k])
        record.ref_index = k
        return record

    records, _ = _closed_loop(ops, block, seconds, run_one, sample_setup)
    sample_setup(1.0)
    reference()  # closes the last timed process's bracket
    failed, correct = _judge_all(records)
    walls = [scale(r.wall, r.ref_index) for r in records]
    tail_s, tail_pct = tail(walls)
    ok_samples = sum(r.op.samples for r in records if not r.problems)
    metrics = {
        "setup_s": statistics.median(scale(w, k) for w, k in setup),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "samples_per_s": ok_samples / sum(walls),
        "peak_rss_mb": max(r.rss_kb for r in records) / 1024.0,
        "ok_ratio": 1.0 - len(failed) / len(records),
    }
    info = {"ops": len(records), "tail_percentile": tail_pct,
            "fail_ratio": len(failed) / len(records),
            "pole_ops": sum(r.op.kind == "pole" for r in records),
            "unscaled": {
                "op_p50_s": statistics.median(r.wall for r in records),
                "setup_s": statistics.median(w for w, _ in setup),
                "reference_p50_s": statistics.median(refs),
                "ops_wall_s": sum(r.wall for r in records)},
            "reference_runs_s": refs}
    return metrics, records, failed, correct, info


def traced(workload, seed, seconds, work):
    """In-process runs of the same ops, untraced then traced: the per-layer
    metrics."""
    env = _cli_env()
    import_lsb, import_scipy = measure_importtime(env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    scn_dir = os.path.join(work, "scenarios")
    ops = workloads.generate(workload, seed, scn_dir)
    block = len(workloads.WORKLOADS[workload].block)

    def run_one(op, i, tag, tracer=None):
        op_dir = os.path.join(work, f"{tag}{i:04d}")
        os.makedirs(op_dir)
        argv = op.argv(scn_dir, os.path.join(op_dir, "out"))
        start = time.perf_counter()
        if tracer is None:
            code, out, err = run_cli_inprocess(argv)
        else:
            code, out, err = tracer.run_op(i, "cli.main", run_cli_inprocess,
                                           argv)
        return Record(i, op, op_dir, time.perf_counter() - start, code, out,
                      err, tag=tag)

    warm = run_one(ops[0], 0, "warm")
    shutil.rmtree(warm.op_dir)
    plain, plain_wall = _closed_loop(
        ops, block, UNTRACED_SHARE * seconds,
        lambda op, i: run_one(op, i, "plain"))
    tracer = Tracer()
    tracer.install()
    try:
        with_trace = [run_one(ops[i % len(ops)], i, "traced", tracer)
                      for i in range(len(plain))]
    finally:
        tracer.uninstall()
    traced_wall = sum(r.wall for r in with_trace)
    records = plain + with_trace
    failed, correct = _judge_all(records)

    n = len(with_trace)
    selfs = tracer.self_time_by_name()
    span_calls = Counter(s.name for s in tracer.spans)
    m = {"setup.import_lsb_lab_s": import_lsb,
         "setup.import_scipy_s": import_scipy}
    m.update({f"{name}.self_s": selfs[name] / n for name in _SELF_SPANS})
    m.update({f"{name}.calls": span_calls[name] / n for name in _CALL_SPANS})
    m.update({f"{name}.calls": tracer.counts[name] / n for name in _COUNTERS})
    for name in _STEP_SPANS:
        steps = tracer.amounts[name + ".steps"]
        m[name + ".steps"] = steps / n
        m[name + ".us_per_step"] = selfs[name] / steps * 1e6 if steps else 0.0
    m["dynamics.integrations"] = sum(map(len, tracer.calls.values())) / n
    m["dynamics.useful_integration_ratio"] = tracer.useful_integration_ratio()
    m["scenario.write_csv.bytes"] = \
        tracer.amounts["scenario.write_csv.bytes"] / n
    sweep_roots = {s.id for s in tracer.spans
                   if s.parent is None and with_trace[s.op].op.command
                   == "sweep"}
    m["cli.sweep.parallel_efficiency"] = \
        tracer.parallel_efficiency(sweep_roots)
    m["trace.overhead_ratio"] = traced_wall / plain_wall
    info = {"ops": len(records), "traced_ops": n, "plain_wall_s": plain_wall,
            "traced_wall_s": traced_wall,
            "fail_ratio": len(failed) / len(records)}
    return m, records, failed, correct, info, tracer


def _print_table(title, metrics, units):
    print(f"== {title}")
    width = max(len(name) for name in metrics)
    for name, unit in units:
        print(f"  {name:<{width}}  {metrics[name]:>14.6g}  {unit}")


def _print_failures(failed):
    for r in failed:
        print(f"    {r.tag}{r.index} [{r.op.kind}] {r.op.scenario_file}: "
              + "; ".join(r.problems[:3]))


def run_workload(workload, seed, seconds, trace):
    """Run one workload and print its table; return (shown metrics, units,
    correct, attempted, failed)."""
    work = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            metrics, records, failed, correct, info, tracer = traced(
                workload, seed, seconds, str(work))
            units = PER_LAYER
        else:
            metrics, records, failed, correct, info = end_to_end(
                workload, seed, seconds, str(work))
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mode = "per-layer (traced, per op)" if trace else "end-to-end"
    shown = dict(metrics, fail_ratio=info["fail_ratio"])
    _print_table(f"{workload} seed {seed}: {mode}", shown,
                 units + [("fail_ratio", "ratio")])
    print(f"  fail_ratio: {len(failed)} failed of {len(records)} attempted")
    if not trace:
        print(f"  {info['pole_ops']} pole ops; op_tail_s is "
              f"p{info['tail_percentile']:.0f} of "
              f"{info['ops']} ops ({TAIL_BEYOND} ops beyond it when "
              f"there are more than {TAIL_BEYOND})")
        raw = info["unscaled"]
        print(f"  times scaled to a reference run of {REF_NOMINAL_S} s; "
              f"unscaled: op p50 {raw['op_p50_s']:.4f} s, setup "
              f"{raw['setup_s']:.4f} s, reference p50 "
              f"{raw['reference_p50_s']:.4f} s")
    else:
        print(f"  {info['traced_ops']} ops traced; overhead ratio "
              f"{metrics['trace.overhead_ratio']:.4f}")
    _print_failures(failed)
    print(f"  correct: {correct} (only pole ops may fail; see NOTES.md)")

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{trace}"
    result = {"workload": workload, "seconds": seconds, "trace": trace,
              "provenance": provenance(seed), "correct": correct,
              "attempted": len(records), "failed": len(failed),
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units},
              "info": info, "ops": [r.to_dict() for r in records]}
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        Path(f"{stem}-spans.json").write_text(
            json.dumps(tracer.span_records()) + "\n")
    return shown, units, correct, len(records), len(failed)


def main(argv=None):
    names = list(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so children are killed and reaped
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        _preflight()
        print("provenance: " + json.dumps(provenance(args.seed)))
        chosen = names if args.workload == "all" else [args.workload]
        results = {w: run_workload(w, args.seed, args.seconds, args.trace)
                   for w in chosen}
    except BenchmarkError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2

    if len(chosen) > 1 and not args.trace:
        columns = results[chosen[0]][1] + [("fail_ratio", "ratio")]
        print("== summary: " + ", ".join(
            f"{name} [{unit}]" for name, unit in columns))
        for w, (shown, *_rest) in results.items():
            print(f"  {w:<13} " + "  ".join(
                f"{shown[name]:.6g}" for name, _ in columns))
    metrics = {}
    for w, (m, units, *_rest) in results.items():
        prefix = "" if len(chosen) == 1 else w + "."
        metrics.update({prefix + k: {"value": m[k], "unit": u}
                        for k, u in units})
    print(json.dumps({
        "correct": all(r[2] for r in results.values()),
        "attempted": sum(r[3] for r in results.values()),
        "failed": sum(r[4] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
