"""Scenario files: schema validation, resolution, execution, serialization.

A scenario is a JSON object selecting a group, a problem, inertia and
connection coefficients, initial data, a grid, and a list of checks.  This
module turns a parsed scenario into library calls and turns results into
deterministic CSV and JSON files (17-significant-digit decimals, atomic
writes, no timestamps).
"""

import copy
import functools
import itertools
import json
import os
import tempfile

# hashlib loads OpenSSL's libcrypto to hash about 1 KB once per run; the
# interpreter's built-in module gives the same digest without it
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from ._version import __version__
from .actions import (
    ConnectionCoefficients,
    moebius_line,
)
from .dynamics import (
    METHODS,
    IntegratorConfig,
    SymmetricSolutionParams,
    closed_form_symmetric,
    feedback_solve,
    integrate_euler_poincare,
    integrate_extremal,
    integrate_riccati,
    lift_extremal,
    reconstruct_group,
)
from .errors import (
    DegenerateInputError,
    DivergenceError,
    DomainError,
    ScenarioError,
)
from .groups import (
    AlgebraElement,
    GroupElement,
    GroupId,
    constraint_residual,
    group_identity,
    inertia_anticommutator,
    inertia_diagonal,
)
from .verify import (
    CheckResult,
    VerificationReport,
    check_action_equality,
    check_closed_form,
    check_closed_loop_audit,
    check_conservation,
    check_cross_ratio,
    check_equivalence_rigid,
    check_hamiltonian_conservation,
    check_rk4_order,
    min_norm_costate,
)

# fixed offsets generating the four-solution family for the cross-ratio
CROSS_RATIO_OFFSETS = (0.0, 0.4, -0.4, 0.9)
# the compare table's row count, at most
COMPARE_ROWS = 21

_TOP_FIELDS = ("group", "problem", "inertia", "connection", "initial",
               "horizon", "step", "integrator", "checks", "outputs")


class Scenario:
    """Validated scenario: typed fields plus the resolved raw object."""

    def __init__(self, raw):
        self.raw = raw
        _require_object(raw, "scenario")
        for key in raw:
            if key not in _TOP_FIELDS:
                raise ScenarioError(key, "unknown field")
        for key in ("group", "problem", "inertia", "connection", "initial",
                    "horizon", "step"):
            if key not in raw:
                raise ScenarioError(key, "required field is missing")

        group_name = raw["group"]
        try:
            self.group = GroupId(group_name)
        except ValueError:
            raise ScenarioError(
                "group", f"must be one of so3, su2, sl2r, so21; "
                f"got {group_name!r}") from None

        self.problem = raw["problem"]
        # compared as a tuple: a list or object here is unhashable
        if self.problem not in tuple(PROBLEMS):
            raise ScenarioError(
                "problem", f"must be one of {', '.join(PROBLEMS)}; "
                f"got {self.problem!r}")
        groups = PROBLEMS[self.problem][0]
        if self.group.value not in groups:
            raise ScenarioError(
                "problem", f"{self.problem} requires one of the groups "
                f"{', '.join(groups)}")

        self.inertia = _parse_inertia(self.group, raw["inertia"])
        conn = _parse_real_vector(raw["connection"], "connection", 3)
        self.connection = ConnectionCoefficients(conn)

        horizon = _parse_positive(raw["horizon"], "horizon")
        step = _parse_positive(raw["step"], "step")
        if step > horizon:
            raise ScenarioError("step", "step must not exceed the horizon")
        integrator = raw.get("integrator", "rk4")
        if integrator not in METHODS:
            raise ScenarioError(
                "integrator", f"must be one of {', '.join(METHODS)}; "
                f"got {integrator!r}")
        try:
            self.config = IntegratorConfig(integrator, step, horizon)
        except DomainError as e:
            raise ScenarioError("step", str(e)) from None

        self.initial = _parse_initial(self, raw["initial"])
        self.checks = _parse_checks(self, raw.get("checks", []))
        self.outputs = _parse_outputs(raw.get("outputs", {}))

    @property
    def inertia_coefficients(self):
        try:
            return self.inertia.diagonal_coefficients()
        except DomainError as e:
            raise ScenarioError("inertia", str(e)) from None

    # Trajectories shared by the checks, the CSV and the compare table:
    # integrated on first use, at most once per scenario.

    @functools.cached_property
    def reduced_flow(self):
        """Euler-Poincare flow from initial.xi0 (rigid_body problems)."""
        return integrate_euler_poincare(self.group, self.inertia,
                                        self.initial["xi0"], self.config)

    @functools.cached_property
    def group_curve(self):
        """reduced_flow with its group curve g' = g xi from initial.g0."""
        return reconstruct_group(self.group, self.reduced_flow,
                                 self.initial["g0"])

    @functools.cached_property
    def lifted_extremal(self):
        """group_curve carried to (initial.x0, initial.p0); p0 defaults to
        the minimum-norm costate matching the momentum J xi0."""
        x0, p0 = self.initial["x0"], self.initial["p0"]
        if p0 is None:
            p0 = min_norm_costate(self.group, self.inertia.matrix3,
                                  self.reduced_flow.xi[0], x0.matrix)
        return lift_extremal(self.group_curve, x0, p0)

    @property
    def line_extremal(self):
        """Line extremal from (initial.x0, initial.p0) (riccati problems).

        A divergence is kept and raised again for every later reader."""
        if isinstance(self._line_run, DivergenceError):
            raise self._line_run
        return self._line_run

    @functools.cached_property
    def _line_run(self):
        try:
            return integrate_extremal(
                moebius_line(self.group), self.connection, self.inertia,
                self.initial["x0"], self.initial["p0"], self.config)
        except DivergenceError as e:
            return e


def _require_object(v, path):
    if not isinstance(v, dict):
        raise ScenarioError(path, "must be an object")


def _finite_float(v, path):
    # JSON integers are unbounded: one beyond float range overflows
    try:
        x = float(v)
    except OverflowError:
        raise ScenarioError(path, "must be finite") from None
    if not np.isfinite(x):
        raise ScenarioError(path, "must be finite")
    return x


def _parse_number(v, path, allow_complex):
    if isinstance(v, bool):
        raise ScenarioError(path, "must be a number")
    if isinstance(v, (int, float)):
        return _finite_float(v, path)
    if (isinstance(v, list) and len(v) == 2
            and all(isinstance(c, (int, float)) and not isinstance(c, bool)
                    for c in v)):
        re, im = (_finite_float(c, path) for c in v)
        if not allow_complex:
            raise ScenarioError(path, "must be a real number")
        return complex(re, im)
    want = "a number or [re, im]" if allow_complex else "a real number"
    raise ScenarioError(path, f"must be {want}")


def _parse_real_vector(v, path, length):
    if not isinstance(v, list) or len(v) != length:
        raise ScenarioError(path, f"must be a list of {length} numbers")
    return [_parse_number(c, f"{path}[{i}]", allow_complex=False)
            for i, c in enumerate(v)]


def _parse_positive(v, path):
    x = _parse_number(v, path, allow_complex=False)
    if x <= 0:
        raise ScenarioError(path, "must be positive")
    return x


def _parse_inertia(group, v):
    _require_object(v, "inertia")
    keys = set(v)
    if keys == {"diag"}:
        d = _parse_real_vector(v["diag"], "inertia.diag", 3)
        try:
            return inertia_diagonal(group, *d)
        except DomainError as e:
            raise ScenarioError("inertia.diag", str(e)) from None
    if keys == {"anticommutator"}:
        d = v["anticommutator"]
        if not isinstance(d, list) or len(d) != group.dim:
            raise ScenarioError(
                "inertia.anticommutator",
                f"must be a list of {group.dim} numbers for {group.value}")
        d = [_parse_number(c, f"inertia.anticommutator[{i}]",
                           allow_complex=False) for i, c in enumerate(d)]
        try:
            return inertia_anticommutator(group, d)
        except DomainError as e:
            raise ScenarioError("inertia.anticommutator", str(e)) from None
    raise ScenarioError(
        "inertia", "must hold exactly one of 'diag' or 'anticommutator'")


def _parse_matrix(group, v, path):
    d = group.dim
    if not isinstance(v, list) or len(v) != d or any(
            not isinstance(row, list) or len(row) != d for row in v):
        raise ScenarioError(path, f"must be a {d}x{d} matrix")
    out = np.zeros((d, d), dtype=group.scalar_dtype)
    for i, row in enumerate(v):
        for j, entry in enumerate(row):
            out[i, j] = _parse_number(entry, f"{path}[{i}][{j}]",
                                      allow_complex=group.is_complex)
    return out


def _parse_group_element(group, v, path):
    m = _parse_matrix(group, v, path)
    try:
        el = GroupElement(group, m)
    except DomainError as e:
        raise ScenarioError(path, str(e)) from None
    if not el.is_valid():
        raise ScenarioError(
            path, f"matrix violates the {group.value} constraint "
                  f"(residual {constraint_residual(el):.3e})")
    return el


def _parse_initial(scn, v):
    _require_object(v, "initial")
    group = scn.group
    if scn.problem == "rigid_body":
        allowed = {"xi0", "g0", "x0", "p0"}
        for key in v:
            if key not in allowed:
                raise ScenarioError(f"initial.{key}", "unknown field")
        if "xi0" not in v:
            raise ScenarioError("initial.xi0", "required field is missing")
        if "x0" not in v:
            raise ScenarioError("initial.x0", "required field is missing")
        xi0 = _parse_real_vector(v["xi0"], "initial.xi0", 3)
        g0 = (_parse_group_element(group, v["g0"], "initial.g0")
              if "g0" in v else group_identity(group))
        x0 = _parse_group_element(group, v["x0"], "initial.x0")
        p0 = (_parse_matrix(group, v["p0"], "initial.p0")
              if "p0" in v else None)
        return {"xi0": AlgebraElement(group, xi0), "g0": g0, "x0": x0,
                "p0": p0}
    allowed = {"x0", "p0"}
    for key in v:
        if key not in allowed:
            raise ScenarioError(f"initial.{key}", "unknown field")
    for key in allowed:
        if key not in v:
            raise ScenarioError(f"initial.{key}", "required field is missing")
    allow_complex = group.is_complex
    return {
        "x0": _parse_number(v["x0"], "initial.x0", allow_complex),
        "p0": _parse_number(v["p0"], "initial.p0", allow_complex),
    }


def _parse_checks(scn, v):
    if not isinstance(v, list) or any(not isinstance(c, str) for c in v):
        raise ScenarioError("checks", "must be a list of check names")
    valid = PROBLEMS[scn.problem][1]
    for i, name in enumerate(v):
        if name not in valid:
            raise ScenarioError(
                f"checks[{i}]",
                f"unknown check {name!r} for problem {scn.problem}; "
                f"valid names: {', '.join(valid)}")
        precondition = valid[name][0]
        unmet = precondition(scn) if precondition else None
        if unmet is not None:
            raise ScenarioError(f"checks[{i}]", f"{name} requires {unmet[1]}")
    return tuple(v)


def _parse_outputs(v):
    _require_object(v, "outputs")
    for key, path in v.items():
        if key not in ("trajectory_csv", "report_json"):
            raise ScenarioError(f"outputs.{key}", "unknown field")
        if not isinstance(path, str) or not path:
            raise ScenarioError(f"outputs.{key}",
                                "must be a non-empty path string")
        # outputs land under the run's output directory (--out, or one
        # directory per sweep value), never beside or above it
        if os.path.isabs(path) or ".." in path.replace(os.sep, "/").split("/"):
            raise ScenarioError(f"outputs.{key}",
                                "must be a relative path without '..'")
    paths = {os.path.normpath(path) for path in v.values()}
    if len(paths) < len(v):
        raise ScenarioError("outputs.report_json",
                            "must not name the trajectory_csv file")
    return dict(v)


def load_raw(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise ScenarioError(str(path), "scenario file not found") from None
    except json.JSONDecodeError as e:
        raise ScenarioError(str(path), f"invalid JSON: {e}") from None


def apply_overrides(raw, assignments=(), step=None, horizon=None):
    """Return a deep copy of the raw scenario with overrides applied.

    assignments are "dotted.path=value" strings; values parse as JSON when
    possible and as bare strings otherwise.  List elements are addressed
    by integer path segments.
    """
    out = copy.deepcopy(raw)
    items = list(assignments)
    if step is not None:
        items.append(f"step={step!r}")
    if horizon is not None:
        items.append(f"horizon={horizon!r}")
    for item in items:
        if "=" not in item:
            raise ScenarioError(item, "override must look like key=value")
        key, _, text = item.partition("=")
        key = key.strip()
        if not key:
            raise ScenarioError(item, "override must name a field")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = out
        parts = key.split(".")
        for depth, part in enumerate(parts[:-1]):
            node = _descend(node, part, ".".join(parts[:depth + 1]))
        leaf = parts[-1]
        if isinstance(node, list):
            idx = _list_index(node, leaf, key)
            node[idx] = value
        elif isinstance(node, dict):
            node[leaf] = value
        else:
            raise ScenarioError(key, "path does not address a field")
    return out


def _descend(node, part, path):
    if isinstance(node, list):
        return node[_list_index(node, part, path)]
    if isinstance(node, dict):
        if part not in node:
            raise ScenarioError(path, "path does not exist")
        return node[part]
    raise ScenarioError(path, "path does not address a field")


def _list_index(node, part, path):
    try:
        idx = int(part)
    except ValueError:
        raise ScenarioError(path, "list index must be an integer") from None
    if not (0 <= idx < len(node)):
        raise ScenarioError(path, f"index {idx} out of range")
    return idx


def scenario_digest(raw):
    """Content hash of the resolved raw scenario (canonical JSON).

    SHA-256 of the canonical JSON, from the interpreter's built-in module
    (``_sha2`` on Python 3.12+, ``_sha256`` before), with
    ``hashlib.sha256`` where neither is built; all give the same digest.
    """
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


def _split_columns(name, values):
    values = np.asarray(values)
    if np.iscomplexobj(values):
        return [(f"{name}_re", values.real.astype(np.float64)),
                (f"{name}_im", values.imag.astype(np.float64))]
    return [(name, values.astype(np.float64))]


def _matrix_columns(name, mats):
    d = mats.shape[1]
    cols = []
    for i in range(d):
        for j in range(d):
            cols.extend(_split_columns(f"{name}_{i}{j}", mats[:, i, j]))
    return cols


_XI_NAMES = ("xi_plus", "xi_minus", "xi_zero")


def simulate_columns(scn):
    """Run the scenario's simulation and return ordered CSV columns."""
    if scn.problem == "rigid_body":
        curve = scn.group_curve
        cols = [("t", curve.times)]
        for a, nm in enumerate(_XI_NAMES):
            cols.extend(_split_columns(nm, curve.xi[:, a]))
        cols.extend(_matrix_columns("g", curve.g))
        return cols
    ext = scn.line_extremal
    cols = [("t", ext.times)]
    cols.extend(_split_columns("x", ext.x))
    cols.extend(_split_columns("p", ext.p))
    for a, nm in enumerate(_XI_NAMES):
        cols.extend(_split_columns(nm, ext.xi[:, a]))
    return cols


def _maybe_real(z):
    z = complex(z)
    if abs(z.imag) <= 1e-12 * max(1.0, abs(z.real)):
        return z.real
    return z


def symmetric_params_from_feedback(scn):
    """Closed-form parameters implied by the scenario's initial point.

    The initial control is the optimal feedback at (x0, p0); its slot
    values seed the closed-form constants.  Requires what
    _symmetric_family checks: equal transverse inertia and nonzero
    connection coefficients.
    """
    I_coeffs = scn.inertia_coefficients
    fb = feedback_solve(scn.group, scn.connection, scn.inertia,
                        scn.initial["x0"], scn.initial["p0"])
    Bp, Bm, B0 = scn.connection.diag
    return SymmetricSolutionParams(
        I=float(I_coeffs[0]), I0=float(I_coeffs[2]),
        B_plus=float(Bp), B_minus=float(Bm), B_zero=float(B0),
        xi0=_maybe_real(fb.coeffs[2]),
        xi_plus0=_maybe_real(fb.coeffs[0]),
        xi_minus0=_maybe_real(fb.coeffs[1]))


# Parse-time preconditions: None when the scenario admits the check,
# otherwise (offending field, what the check requires).

def _rk4_only(scn):
    return (None if scn.config.method == "rk4"
            else ("integrator", "the rk4 integrator"))


def _sl2r_only(scn):
    return None if scn.group is GroupId.SL2R else ("group", "group sl2r")


def _three_samples(scn):
    # central differences and Simpson quadrature need three samples
    return (None if scn.config.n_steps >= 2
            else ("step", "at least two steps (step <= horizon / 2)"))


def _symmetric_family(scn):
    # the closed-form family's own domain (SymmetricSolutionParams)
    coeffs = scn.inertia_coefficients
    if abs(coeffs[0] - coeffs[1]) > 1e-12 * max(1.0, abs(coeffs[0])):
        return "inertia", "equal transverse inertia (I_plus == I_minus)"
    if np.prod(scn.connection.diag) == 0:
        return "connection", "nonzero connection coefficients"
    return None


# Runners: each returns a tuple of CheckResults and reads the scenario's
# cached trajectories.  Check and integrator functions are looked up in
# this module at call time, so a patched binding (a test's counter, the
# benchmark's tracer) sees every call.

def _equivalence_rigid(scn):
    return check_equivalence_rigid(scn.inertia, scn.lifted_extremal)


def _conservation(scn):
    return check_conservation(scn.inertia, scn.reduced_flow)


def _rk4_order(scn):
    horizon = scn.config.horizon
    coarse = IntegratorConfig("rk4", horizon / 10.0, horizon)
    try:
        return (check_rk4_order(scn.group, scn.inertia, scn.initial["xi0"],
                                coarse),)
    except DegenerateInputError as e:
        # no measurable order at roundoff: a failing entry, gated like
        # the check's own band |ratio - 16| <= 4
        return (CheckResult.from_residual(
            "rk4_order", np.inf, 4.0,
            details=f"order not measurable: {e}"),)


def _manifold_action_equality(scn):
    return (check_action_equality(scn.inertia, scn.connection,
                                  scn.lifted_extremal),)


def _cross_ratio(scn):
    family = integrate_riccati(
        scn.group, scn.connection, scn.line_extremal.xi,
        [scn.initial["x0"] + d for d in CROSS_RATIO_OFFSETS], scn.config)
    return (check_cross_ratio(family),)


def _line_action_equality(scn):
    return (check_action_equality(scn.inertia, scn.connection,
                                  scn.line_extremal),)


def _hamiltonian_conservation(scn):
    return (check_hamiltonian_conservation(scn.connection, scn.inertia,
                                           scn.line_extremal),)


def _closed_form(scn):
    params = symmetric_params_from_feedback(scn)
    try:
        ext = scn.line_extremal
    except DivergenceError as e:
        return (CheckResult.from_residual(
            "closed_form", np.inf, 1e-7,
            details=(f"numeric closed loop diverged near t = "
                     f"{e.escape_time:.6g}; no finite gap to report")),)
    return (check_closed_form(params, ext),)


def _closed_loop_audit(scn):
    return (check_closed_loop_audit(),)


# problem -> (groups it is defined on,
#             {check name: (parse-time precondition or None, runner)});
# input errors list the valid check names in this order
PROBLEMS = {
    "rigid_body": (("so3", "su2"), {
        "equivalence_rigid": (_three_samples, _equivalence_rigid),
        "energy_conservation": (None, _conservation),
        "casimir_conservation": (None, _conservation),
        "rk4_order": (_rk4_only, _rk4_order),
        "action_equality": (_three_samples, _manifold_action_equality),
    }),
    "riccati": (("sl2r", "su2", "so21"), {
        "cross_ratio": (None, _cross_ratio),
        "action_equality": (_three_samples, _line_action_equality),
        "hamiltonian_conservation": (None, _hamiltonian_conservation),
        "closed_form": (_symmetric_family, _closed_form),
        "closed_loop_audit": (_sl2r_only, _closed_loop_audit),
    }),
}


def run_checks(scn):
    """Execute the scenario's check list and assemble the report.

    A runner serving several names (energy and Casimir drift) runs once;
    each name takes the entries it labels.
    """
    checks = PROBLEMS[scn.problem][1]
    results = {}
    entries = []
    for name in scn.checks:
        runner = checks[name][1]
        if runner not in results:
            results[runner] = runner(scn)
        entries.extend(e for e in results[runner]
                       if e.name.partition(".")[0] == name)
    return VerificationReport(tuple(entries),
                              scenario_digest=scenario_digest(scn.raw))


def compare_table(scn):
    """Closed-form vs numeric samples, at most COMPARE_ROWS rows.

    Returns (header, rows, escape_time); escape_time is None for a
    complete run and the estimate when the numeric loop diverged, in
    which case the rows cover the surviving prefix.
    """
    if scn.problem != "riccati":
        raise ScenarioError("problem", "compare requires the riccati problem")
    unmet = _symmetric_family(scn)
    if unmet is not None:
        raise ScenarioError(unmet[0], f"compare requires {unmet[1]}")
    params = symmetric_params_from_feedback(scn)
    escape = None
    try:
        num = scn.line_extremal
        times, xs, ps = num.times, num.x, num.p
    except DivergenceError as e:
        escape = e.escape_time
        if e.last_index < 2:
            return (_COMPARE_HEADER, [], escape)
        # the surviving prefix, as the diverged run computed it
        xs, ps = np.array(e.states, dtype=scn.group.scalar_dtype).T
        times = np.arange(xs.size) * scn.config.step
    xf, pf = closed_form_symmetric(scn.group, params, times)
    n = times.size
    stride = max(1, (n - 1) // (COMPARE_ROWS - 1)) if n > 1 else 1
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    rows = []
    for k in idx:
        rows.append((times[k], xs[k], xf[k], abs(xs[k] - xf[k]), ps[k],
                     pf[k], abs(ps[k] - pf[k])))
    return (_COMPARE_HEADER, rows, escape)


_COMPARE_HEADER = ("t", "x_num", "x_form", "gap_x", "p_num", "p_form",
                   "gap_p")


def _format_value(v):
    if isinstance(v, complex) or np.iscomplexobj(np.asarray(v)):
        z = complex(v)
        return "%.9g%+.9gj" % (z.real, z.imag)
    return "%.9g" % float(np.real(v))


def format_table(header, rows):
    cells = [list(header)] + [[_format_value(v) for v in row]
                              for row in rows]
    widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
    lines = []
    for r in cells:
        lines.append("  ".join(s.rjust(w) for s, w in zip(r, widths)))
    return "\n".join(lines)


def _atomic_write(path, chunks):
    # chunks: an iterable of strings, written in turn to a temporary file
    # that replaces path only once every chunk is written
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, columns):
    """Write named columns as CSV with 17-significant-digit decimals."""
    names = [name for name, _ in columns]
    arrays = [np.asarray(values, dtype=np.float64) for _, values in columns]
    n = arrays[0].size
    for name, arr in zip(names, arrays):
        if arr.ndim != 1 or arr.size != n:
            raise DomainError(f"column {name} does not match the grid")
    row = ",".join(["%.17g"] * len(arrays)) + "\n"
    rows = zip(*[arr.tolist() for arr in arrays])
    _atomic_write(path, itertools.chain([",".join(names) + "\n"],
                                        (row % values for values in rows)))


def read_csv(path):
    """Read a CSV written by write_csv back into named float columns."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def write_report(path, report):
    """Serialize a verification report with tool version, atomically."""
    obj = report.to_dict()
    obj["tool_version"] = __version__
    _atomic_write(path, [json.dumps(obj, sort_keys=True, indent=2) + "\n"])
