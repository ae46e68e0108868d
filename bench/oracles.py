"""Independent output oracles.

Each op's outcome is judged against its expectation from three sources the
library does not control: the exit code and stderr, the pass flags in the
written report, and quantities recomputed here from the written CSV with
formulas of this file (first integrals, group constraints, the feedback law
and, on the exact sl2r line, the closed-form tan solution).  Nothing here
imports the library under test.

Every tolerance the oracles apply is a named constant below.
"""

from __future__ import annotations

import copy
import json
import math
import os
import re

import numpy as np

from workloads import SWEEP_PARAM

# Relative drift of the rigid-body energy (1/2) sum I_a xi_a^2 and of the
# Casimir sum |I_a xi_a|^2 over the whole CSV: roundoff plus the O(h^4)
# truncation drift of a fourth-order scheme on a unit horizon,
# RIGID_DRIFT_FLOOR + RIGID_DRIFT_H4 * step^4.
RIGID_DRIFT_FLOOR = 1e-12
RIGID_DRIFT_H4 = 10.0
# max |g^H g - 1| and |det g - 1| over every CSV row of the g_ij columns.
GROUP_TOL = 1e-11
# First CSV row against the scenario's initial data; grid against k * step.
INITIAL_TOL = 1e-14
GRID_TOL = 1e-12
# Relative drift of the line Hamiltonian H = p^2 sum_a X_a(x)^2 / (2 I_a).
HAMILTONIAN_TOL = 1e-10
# Control columns against the feedback law xi_a = p X_a(x) / I_a, relative
# to max(1, max |xi|).
FEEDBACK_TOL = 1e-12
# Exact sl2r line: gap |x - tan(arctan x0 + c t)| / (1 + |x_exact|) on the
# samples with t <= TAN_WINDOW * t*, where the solution is well conditioned.
TAN_GAP_TOL = 1e-9
TAN_WINDOW = 0.9
# Escape time printed on stderr against the exact pole, in grid steps.
ESCAPE_TOL_STEPS = 0.5

EXIT_OK, EXIT_CHECK_FAILED, EXIT_DIVERGED = 0, 2, 3

_ESCAPE = re.compile(r"diverged near t = ([-+0-9.eEinfa]+)")
_XI_NAMES = ("xi_plus", "xi_minus", "xi_zero")
# report entries written for each requested check name
_REPORT_ENTRIES = {"equivalence_rigid": ("equivalence_rigid.control",
                                         "equivalence_rigid.constraint")}


def line_generators(group, B):
    """Coefficient rows (constant, linear, quadratic) of the three line
    generators X_plus, X_minus, X_zero, for connection B."""
    bp, bm, b0 = B
    if group == "sl2r":
        return np.array([(bp, 0, 0), (0, 0, -bm), (0, 2 * b0, 0)], float)
    if group == "su2":
        return np.array([(bp, 0, bp), (1j * bm, 0, -1j * bm),
                         (0, 2j * b0, 0)])
    if group == "so21":
        return np.array([(0, 2j * bp, 0), (1j * bm, 0, 1j * bm),
                         (-b0, 0, b0)])
    raise ValueError(f"no line generators for {group!r}")


def read_csv(path):
    """Columns of a trajectory CSV; `name_re`/`name_im` pairs are merged into
    one complex column `name`."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    cols = {name: data[:, i] for i, name in enumerate(header)}
    for name in list(cols):
        if name.endswith("_re") and name[:-3] + "_im" in cols:
            base = name[:-3]
            cols[base] = cols.pop(name) + 1j * cols.pop(base + "_im")
    return cols


def _number(v):
    return complex(v[0], v[1]) if isinstance(v, list) else float(v)


def _matrix(rows):
    return np.array([[_number(e) for e in row] for row in rows])


def _relative_drift(values):
    v0 = values[0]
    return float(np.abs(values - v0).max() / max(abs(v0), 1e-300))


def check_grid(cols, horizon, step):
    problems = []
    t = cols.get("t")
    n = int(round(horizon / step)) + 1
    if t is None or t.size != n:
        size = None if t is None else t.size
        return [f"grid has {size} samples, expected {n}"]
    gap = float(np.abs(t - np.arange(n) * step).max())
    if gap > GRID_TOL * max(1.0, horizon):
        problems.append(f"grid departs from k * step by {gap:.3e}")
    return problems


def check_rigid_csv(cols, scn):
    """First integrals, group constraint and initial data of a rigid run."""
    group = scn["group"]
    problems = check_grid(cols, scn["horizon"], scn["step"])
    if problems:
        return problems
    inertia = np.array(scn["inertia"]["diag"], float)
    xi = np.stack([cols[n] for n in _XI_NAMES], axis=1)
    energy = 0.5 * (xi * xi) @ inertia
    casimir = (np.abs(xi * inertia) ** 2).sum(axis=1)
    tol = RIGID_DRIFT_FLOOR + RIGID_DRIFT_H4 * scn["step"] ** 4
    for label, values in (("energy", energy), ("casimir", casimir)):
        drift = _relative_drift(values)
        if not drift <= tol:
            problems.append(f"{label} drift {drift:.3e} > {tol:.3e}")
    d = 3 if group == "so3" else 2
    g = np.stack([cols[f"g_{i}{j}"] for i in range(d) for j in range(d)],
                 axis=1).reshape(-1, d, d)
    gram = np.einsum("kji,kjl->kil", g.conj(), g) - np.eye(d)
    gram_gap = float(np.abs(gram).max())
    det_gap = float(np.abs(np.linalg.det(g) - 1.0).max())
    if not max(gram_gap, det_gap) <= GROUP_TOL:
        problems.append(f"group constraint gap {max(gram_gap, det_gap):.3e} "
                        f"> {GROUP_TOL:.0e}")
    xi0 = np.array(scn["initial"]["xi0"], float)
    if not np.abs(xi[0] - xi0).max() <= INITIAL_TOL:
        problems.append("first xi row differs from initial.xi0")
    g0 = _matrix(scn["initial"]["g0"])
    if not np.abs(g[0] - g0).max() <= INITIAL_TOL:
        problems.append("first g row differs from initial.g0")
    return problems


def hamiltonian(group, B, inertia, x, p):
    rows = line_generators(group, B)
    X = rows[:, 0] + np.outer(x, rows[:, 1]) + np.outer(x * x, rows[:, 2])
    return p * p * (X * X / (2.0 * np.asarray(inertia))).sum(axis=1), X


def check_riccati_csv(cols, scn):
    """Hamiltonian drift, feedback law and initial data of a line run."""
    problems = check_grid(cols, scn["horizon"], scn["step"])
    if problems:
        return problems
    B = scn["connection"]
    inertia = np.array(scn["inertia"]["diag"], float)
    x, p = cols["x"], cols["p"]
    H, X = hamiltonian(scn["group"], B, inertia, x, p)
    drift = _relative_drift(H)
    if not drift <= HAMILTONIAN_TOL:
        problems.append(f"Hamiltonian drift {drift:.3e} > "
                        f"{HAMILTONIAN_TOL:.0e}")
    xi = np.stack([cols[n] for n in _XI_NAMES], axis=1)
    fb = p[:, None] * X / inertia
    fb_gap = float(np.abs(xi - fb).max() / max(1.0, float(np.abs(xi).max())))
    if not fb_gap <= FEEDBACK_TOL:
        problems.append(f"controls depart from the feedback law by "
                        f"{fb_gap:.3e} > {FEEDBACK_TOL:.0e}")
    for key in ("x0", "p0"):
        want = _number(scn["initial"][key])
        got = (x if key == "x0" else p)[0]
        if not abs(got - want) <= INITIAL_TOL * max(1.0, abs(want)):
            problems.append(f"first row differs from initial.{key}")
    return problems


def check_exact_csv(cols, scn, t_star):
    """Exact sl2r line (B = (1,1,1), I = (1,1,2)): the run must follow
    x = tan(arctan x0 + c t), c = p0 (1 + x0^2), and must not run past t*."""
    problems = []
    t, x = cols["t"], np.real(cols["x"])
    x0, p0 = scn["initial"]["x0"], scn["initial"]["p0"]
    c = p0 * (1.0 + x0 * x0)
    window = t <= TAN_WINDOW * t_star
    exact = np.tan(math.atan(x0) + c * t[window])
    gap = float((np.abs(x[window] - exact) / (1.0 + np.abs(exact))).max())
    if not gap <= TAN_GAP_TOL:
        problems.append(f"gap to the tan solution {gap:.3e} > "
                        f"{TAN_GAP_TOL:.0e} before the pole")
    if t[-1] > t_star:
        problems.append(f"trajectory runs through the pole t* = {t_star:.6g} "
                        f"to t = {t[-1]:.6g} with finite values")
    return problems


def check_report(path, checks, failing=()):
    """The report must hold exactly the entries of `checks`, and exactly the
    entries named in `failing` must fail."""
    try:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        return [f"report unreadable: {e}"]
    entries = {c["name"]: c["passed"] for c in report.get("checks", [])}
    want = [e for name in checks for e in _REPORT_ENTRIES.get(name, (name,))]
    problems = []
    if sorted(entries) != sorted(want):
        problems.append(f"report entries {sorted(entries)} != {sorted(want)}")
    for name, passed in sorted(entries.items()):
        if passed == (name in failing):
            problems.append(f"check {name} "
                            f"{'passed' if passed else 'failed'}, expected "
                            f"{'failure' if name in failing else 'pass'}")
    if report.get("all_passed") != (not failing):
        problems.append(f"all_passed is {report.get('all_passed')}")
    return problems


def escape_time(stderr):
    m = _ESCAPE.search(stderr)
    if m is None:
        return None
    try:
        return float(m.group(1))
    except ValueError:
        return None


def _csv_problems(path, check, *args):
    if not os.path.exists(path):
        return [f"missing {os.path.basename(path)}"]
    try:
        cols = read_csv(path)
        return check(cols, *args)
    except (OSError, ValueError, KeyError) as e:
        return [f"unreadable {os.path.basename(path)}: {e}"]


def _exit_problem(code, want, stderr):
    if code == want:
        return []
    tail = stderr.strip().splitlines()[-1:] if stderr.strip() else []
    return [f"exit {code}, expected {want}"
            + (f" ({tail[0][:160]})" if tail else "")]


def judge(op, code, stdout, stderr, out_dir):
    """Problems with one op's outcome; an empty list means it passed."""
    scn = op.scenario
    csv = os.path.join(out_dir, scn["outputs"]["trajectory_csv"])
    report = os.path.join(out_dir, scn["outputs"]["report_json"])
    if op.kind == "rigid":
        return (_exit_problem(code, EXIT_OK, stderr)
                + check_report(report, scn["checks"])
                + _csv_problems(csv, check_rigid_csv, scn))
    if op.kind == "riccati":
        return (_exit_problem(code, EXIT_CHECK_FAILED, stderr)
                + check_report(report, scn["checks"], failing=("closed_form",))
                + _csv_problems(csv, check_riccati_csv, scn))
    if op.kind == "pole":
        problems = _exit_problem(code, EXIT_DIVERGED, stderr)
        if code == EXIT_DIVERGED:
            t_esc = escape_time(stderr)
            tol = ESCAPE_TOL_STEPS * scn["step"]
            if t_esc is None:
                problems.append("no escape time on stderr")
            elif not abs(t_esc - op.t_star) <= tol:
                problems.append(f"escape time {t_esc:.6g} is "
                                f"{abs(t_esc - op.t_star):.3g} from the exact "
                                f"pole t* = {op.t_star:.6g} (tolerance "
                                f"{tol:.3g})")
        if os.path.exists(csv):
            problems += _csv_problems(csv, check_riccati_csv, scn)
            problems += _csv_problems(csv, check_exact_csv, scn, op.t_star)
        return problems
    if op.kind == "sweep":
        return _judge_sweep(op, code, stdout, stderr, out_dir)
    raise ValueError(f"unknown op kind {op.kind!r}")


def _judge_sweep(op, code, stdout, stderr, out_dir):
    problems = _exit_problem(code, EXIT_OK, stderr)
    lines = stdout.splitlines()
    headers = [ln for ln in lines if ln.startswith("--- ")]
    if len(headers) != len(op.sweep_values):
        problems.append(f"{len(headers)} sweep sections for "
                        f"{len(op.sweep_values)} values")
    bad = [ln for ln in lines
           if ln.startswith(("FAIL", "aborted", "input error"))]
    problems += [f"sweep line: {ln[:160]}" for ln in bad]
    for value in op.sweep_values:
        label = f"{SWEEP_PARAM}={value}"
        scn = copy.deepcopy(op.scenario)
        scn["initial"]["xi0"][0] = float(value)
        vdir = os.path.join(out_dir, label)
        problems += [f"{label}: {p}" for p in check_report(
            os.path.join(vdir, scn["outputs"]["report_json"]), scn["checks"])]
        problems += [f"{label}: {p}" for p in _csv_problems(
            os.path.join(vdir, scn["outputs"]["trajectory_csv"]),
            check_rigid_csv, scn)]
    return problems
