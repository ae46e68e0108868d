"""Certification checks for trajectories, assembled into structured reports.

Each check measures one identity on concrete numeric data and returns a
CheckResult whose pass flag is determined by residual against tolerance.
Checks are pure functions of their inputs: rerunning one on the same data
reproduces the residual bitwise (fixed iteration order, no randomness).
"""

from dataclasses import dataclass

import numpy as np

from .actions import (
    ConnectionCoefficients,
    clebsch_lagrangian,
    group_manifold,
    moebius_line,
    quadratic_cost,
    riccati_coefficients,
)
from .dynamics import (
    IntegratorConfig,
    Trajectory,
    closed_form_symmetric,
    closed_loop_rhs,
    feedback_solve,
    integrate_euler_poincare,
    integrate_extremal,
    quadrature,
)
from .errors import DegenerateInputError, DivergenceError, DomainError
from .groups import (
    AlgebraElement,
    GroupId,
    InertiaOperator,
    _BASES,
)


@dataclass(frozen=True)
class CheckResult:
    """One named residual measurement with its gate."""

    name: str
    max_residual: float
    tolerance: float
    passed: bool
    details: str = ""

    def __post_init__(self):
        # pass flag must agree with the residual/tolerance comparison;
        # NaN and inf residuals compare as failing
        expected = bool(self.max_residual <= self.tolerance)
        if self.passed != expected:
            raise DomainError("pass flag inconsistent with residual")

    @classmethod
    def from_residual(cls, name, max_residual, tolerance, details=""):
        r = float(max_residual)
        return cls(name=name, max_residual=r, tolerance=float(tolerance),
                   passed=bool(r <= tolerance), details=details)

    def to_dict(self):
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "details": self.details,
        }


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    scenario_digest: str = ""

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "checks": [c.to_dict() for c in self.checks],
            "scenario_digest": self.scenario_digest,
            "all_passed": self.all_passed,
        }


def central_difference(times, values):
    """Second-order derivative estimate along axis 0 of a sampled curve.

    Interior points use the symmetric stencil; endpoints use one-sided
    three-point stencils, also second order.
    """
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(values)
    if t.ndim != 1 or t.size < 3:
        raise DomainError("need at least three samples for differentiation")
    if v.shape[0] != t.size:
        raise DomainError("times and values disagree in length")
    h = t[1] - t[0]
    out = np.empty_like(v, dtype=np.result_type(v.dtype, np.float64))
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out


def _residual_tolerance(step, floor=1e-6, scale=10.0):
    # differential residuals inherit the O(h^2) stencil error
    return max(floor, scale * step * step)


def _frobenius_max(arr):
    # max over samples of the Frobenius norm of each matrix slice
    flat = arr.reshape(arr.shape[0], -1)
    return float(np.sqrt((np.abs(flat) ** 2).sum(axis=1)).max())


def _inertia_matrix3(group: GroupId, J_in) -> np.ndarray:
    if isinstance(J_in, InertiaOperator):
        return J_in.matrix3
    return np.asarray(J_in, dtype=np.float64)


def min_norm_costate(group: GroupId, J3, xi0, x0m):
    """Costate p0 at the state matrix x0m matching the momentum J3 xi0.

    Momentum matching at t = 0 pins only the skew part of x0^H p0; the
    minimum-norm choice zeroes the rest: x0^H p0 = M0 / 2.
    """
    M0 = AlgebraElement(group, np.asarray(J3) @ np.asarray(xi0)).matrix()
    return np.linalg.solve(np.asarray(x0m).conj().T, M0 / 2.0)


def check_equivalence_rigid(J_in, g_traj, xi_traj, x0):
    """Certify the two-sided correspondence on a rigid-body run.

    Inputs: inertia J_in, a group trajectory whose samples satisfy
    g' = -xi g, the control samples xi, and a start point x0 on the group.
    Builds x(t) = x0 g(t)^(-1) and p(t) = p0 g(t)^(-1), where p0 is the
    minimum-norm solution of the momentum matching condition at t = 0,
    then measures (i) the control-equation residual x' - x xi by central
    differences and (ii) the momentum matching residual along the flow.
    Returns two CheckResult entries.
    """
    group = g_traj.group
    if g_traj.g is None:
        raise DomainError("group samples required")
    xi = xi_traj.xi if isinstance(xi_traj, Trajectory) else np.asarray(xi_traj)
    times = g_traj.times
    n = times.size
    if xi.shape != (n, 3):
        raise DomainError("control samples do not match the group trajectory")
    J3 = _inertia_matrix3(group, J_in)
    h = g_traj.step
    base = _BASES[group]

    dets = np.linalg.det(g_traj.g)
    if np.abs(dets).min() < 1e-12:
        k = int(np.abs(dets).argmin())
        raise DomainError(f"singular group sample at index {k}")
    ginv = np.linalg.inv(g_traj.g)

    x0m = np.asarray(x0.matrix if hasattr(x0, "matrix") else x0,
                     dtype=group.scalar_dtype)
    xs = np.einsum("ij,kjl->kil", x0m, ginv)

    p0 = min_norm_costate(group, J3, xi[0], x0m)
    ps = np.einsum("ij,kjl->kil", p0, ginv)

    ximats = np.tensordot(xi, base, axes=(1, 0)).astype(group.scalar_dtype)
    xdot = central_difference(times, xs)
    control = xdot - np.einsum("kij,kjl->kil", xs, ximats)
    r_control = _frobenius_max(control)

    matched = np.einsum("kij,kjl->kil", xs.conj().transpose(0, 2, 1), ps)
    Msamples = matched - matched.conj().transpose(0, 2, 1)
    Jxi = xi @ J3.T
    Jmats = np.tensordot(Jxi, base, axes=(1, 0)).astype(group.scalar_dtype)
    r_constraint = _frobenius_max(Msamples - Jmats)

    tol = _residual_tolerance(h)
    return (
        CheckResult.from_residual(
            "equivalence_rigid.control", r_control, tol,
            details=f"max |x' - x xi| = {r_control:.6e} over {n} samples"),
        CheckResult.from_residual(
            "equivalence_rigid.constraint", r_constraint, tol,
            details=("max |x^H p - p^H x - J xi| = "
                     f"{r_constraint:.6e} over {n} samples")),
    )


def check_cross_ratio(trajs):
    """Constancy of the cross-ratio along four solutions of one line flow."""
    if len(trajs) != 4:
        raise DomainError("exactly four trajectories required")
    xs = [np.asarray(t.x) for t in trajs]
    n = xs[0].size
    for x in xs[1:]:
        if x.size != n:
            raise DomainError("trajectories do not share a grid")
    starts = np.array([x[0] for x in xs])
    scale = max(1.0, float(np.abs(starts).max()))
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(starts[i] - starts[j]) <= 1e-12 * scale:
                raise DegenerateInputError(
                    f"solutions {i} and {j} coincide at t = 0")
    x1, x2, x3, x4 = xs
    cr = ((x1 - x3) * (x2 - x4)) / ((x1 - x4) * (x2 - x3))
    cr0 = cr[0]
    drift = float(np.abs(cr - cr0).max() / abs(cr0))
    return CheckResult.from_residual(
        "cross_ratio", drift, 1e-8,
        details=f"cross-ratio {cr0!r}, relative drift {drift:.6e}")


def _space_of(traj: Trajectory):
    if traj.x is None:
        raise DomainError("trajectory has no state samples")
    return moebius_line(traj.group) if np.asarray(traj.x).ndim == 1 \
        else group_manifold(traj.group)


def check_action_equality(J_in, B: ConnectionCoefficients, traj: Trajectory,
                          pairing="coordinate"):
    """Equality of the plain and lifted action integrals on an extremal.

    Precondition checked first: the stored curve satisfies its control
    equation.  The residual compares a central-difference derivative
    against the stored velocity samples, normalized by the local velocity
    scale so that steep-but-faithful stretches are not penalized for the
    stencil's own truncation error.  On curves that pass, the lifted
    integrand's penalty term vanishes and the two integrals agree up to
    quadrature roundoff.
    """
    if traj.x is None or traj.p is None or traj.xdot is None:
        raise DomainError("extremal with stored state, costate and velocity "
                          "samples required")
    group = traj.group
    space = _space_of(traj)
    if isinstance(J_in, InertiaOperator):
        J = J_in
    else:
        J = InertiaOperator(group, np.asarray(J_in, dtype=np.float64))
    times = traj.times
    h = traj.step
    xdot_cd = central_difference(times, traj.x)
    pre_res = np.abs(xdot_cd - traj.xdot)
    pre_scale = np.abs(np.asarray(traj.xdot))
    while pre_res.ndim > 1:
        pre_res = pre_res.sum(axis=-1)
        pre_scale = pre_scale.sum(axis=-1)
    r_pre = float((pre_res / (1.0 + pre_scale)).max())
    tol_pre = _residual_tolerance(h)
    if r_pre > tol_pre:
        return CheckResult.from_residual(
            "action_equality", np.inf, 1e-8,
            details=("control-equation precheck failed: central-difference "
                     f"residual {r_pre:.6e} > {tol_pre:.6e}; the action "
                     "identity is only asserted on curves satisfying the "
                     "control equation"))

    n = times.size
    L_vals = np.empty(n, dtype=np.complex128)
    lifted_vals = np.empty(n, dtype=np.complex128)
    for k in range(n):
        xi_k = AlgebraElement(group, traj.xi[k])
        L_vals[k] = quadratic_cost(J, xi_k, pairing=pairing)
        lifted_vals[k] = clebsch_lagrangian(
            space, B, J, traj.x[k], traj.p[k], traj.xdot[k], xi_k,
            pairing=pairing)
    S_plain = quadrature(times, L_vals)
    S_lifted = quadrature(times, lifted_vals)
    gap = abs(S_lifted - S_plain) / (1.0 + abs(S_plain))
    return CheckResult.from_residual(
        "action_equality", gap, 1e-8,
        details=(f"S_plain = {S_plain!r}, S_lifted = {S_lifted!r}, "
                 f"precheck residual {r_pre:.6e} (tol {tol_pre:.6e})"))


def check_closed_form(group: GroupId, params, cfg: IntegratorConfig):
    """Gap between the integrated closed loop and the printed formulas.

    A divergence raised by the integrator is converted into a failing
    entry carrying the escape-time estimate.
    """
    space = moebius_line(group)
    B = params.connection()
    I_coeffs = (params.I, params.I, params.I0)
    x0, p0 = closed_form_symmetric(group, params, 0.0)
    try:
        num = integrate_extremal(space, B, I_coeffs, x0, p0, cfg)
    except DivergenceError as e:
        return CheckResult.from_residual(
            "closed_form", np.inf, 1e-7,
            details=(f"numeric closed loop diverged near t = "
                     f"{e.escape_time:.6g}; no finite gap to report"))
    xf, pf = closed_form_symmetric(group, params, num.times)
    gap_x = float(np.abs(num.x - xf).max())
    gap_p = float(np.abs(num.p - pf).max())
    gap = max(gap_x, gap_p)
    return CheckResult.from_residual(
        "closed_form", gap, 1e-7,
        details=(f"sup gap x {gap_x:.6e}, p {gap_p:.6e}; "
                 f"max |x_num| {float(np.abs(num.x).max()):.6g}"))


def check_conservation(J_in, traj: Trajectory):
    """Drift of the reduced energy and of the squared momentum coefficients.

    Both are first integrals of the reduced flow; drift is measured in
    absolute terms against the initial value.  Returns two entries.
    """
    if traj.xi is None:
        raise DomainError("control samples required")
    J3 = _inertia_matrix3(traj.group, J_in)
    xi = traj.xi
    energy = 0.5 * np.einsum("ka,ab,kb->k", xi, J3, xi)
    Jxi = xi @ J3.T
    casimir = (np.abs(Jxi) ** 2).sum(axis=1)
    d_e = float(np.abs(energy - energy[0]).max())
    d_c = float(np.abs(casimir - casimir[0]).max())
    return (
        CheckResult.from_residual(
            "energy_conservation", d_e, 1e-6,
            details=f"energy {energy[0]!r}, max drift {d_e:.6e}"),
        CheckResult.from_residual(
            "casimir_conservation", d_c, 1e-6,
            details=f"|J xi|^2 {casimir[0]!r}, max drift {d_c:.6e}"),
    )


def check_rk4_order(group: GroupId, J_in, xi0, cfg: IntegratorConfig):
    """Terminal-error ratio between steps h and h/2 on the reduced flow.

    A fourth-order scheme halves the terminal error by about 16; the
    accepted band [12, 20] allows higher-order contamination.  The
    reference solution is the same scheme at h/8.  The step must sit in
    the truncation-dominated regime: at very small steps the terminal
    errors sink into roundoff and the ratio is noise, which this check
    rejects rather than reporting a meaningless number.
    """
    if cfg.method != "rk4":
        raise DomainError("order check is defined for the rk4 method")
    if not isinstance(J_in, InertiaOperator):
        J_in = InertiaOperator(group, np.asarray(J_in, dtype=np.float64))
    if not isinstance(xi0, AlgebraElement):
        xi0 = AlgebraElement(group, xi0)

    def terminal(step):
        sub = IntegratorConfig("rk4", step, cfg.horizon)
        return integrate_euler_poincare(group, J_in, xi0, sub).xi[-1]

    ref = terminal(cfg.step / 8.0)
    e1 = float(np.abs(terminal(cfg.step) - ref).max())
    e2 = float(np.abs(terminal(cfg.step / 2.0) - ref).max())
    floor = 1e-13 * max(1.0, float(np.abs(ref).max()))
    if e1 < floor or e2 == 0.0:
        raise DegenerateInputError(
            f"terminal errors at roundoff level ({e1:.3e}); "
            "use a coarser step for the order measurement")
    ratio = e1 / e2
    return CheckResult.from_residual(
        "rk4_order", abs(ratio - 16.0), 4.0,
        details=(f"terminal-error ratio {ratio:.4f} "
                 f"(errors {e1:.3e} / {e2:.3e}, band [12, 20])"))


def _displayed_substituted_rhs(x, p, B: ConnectionCoefficients, I_coeffs):
    # the printed substituted system, transcribed as displayed
    Bp, Bm, B0 = B.diag
    Ip, Im, I0 = I_coeffs
    xdot = (Bp * Bp / Ip * x ** 4 + 4.0 * B0 * B0 / I0 * x * x
            + Bm * Bm / Im) * p
    pdot = -(2.0 * Bp * Bp / Ip + 4.0 * B0 * B0 / I0) * p * p * x
    return xdot, pdot


def _expanded_substituted_rhs(x, p, B: ConnectionCoefficients, I_coeffs):
    # substituting the stationarity values into the control coefficients
    # by hand gives these polynomials; an independent algebraic path to
    # the same vector field as the feedback/coefficient composition
    Bp, Bm, B0 = B.diag
    Ip, Im, I0 = I_coeffs
    xdot = (Bm * Bm / Im * x ** 4 + 4.0 * B0 * B0 / I0 * x * x
            + Bp * Bp / Ip) * p
    pdot = -(2.0 * Bm * Bm / Im * x ** 3 + 4.0 * B0 * B0 / I0 * x) * p * p
    return xdot, pdot


def check_closed_loop_audit(group: GroupId = GroupId.SL2R,
                            B: ConnectionCoefficients = None,
                            I_coeffs=(1.0, 2.0, 1.5), n_points=100, seed=7):
    """Audit the substituted closed loop for internal consistency.

    Composes the stationarity solve with the coefficient map at sampled
    (x, p) points and compares against an independently hand-expanded
    polynomial form of the same substitution; the two must agree to near
    machine precision.  The entry's details record where the
    self-consistent system departs from the printed substituted display
    (coefficient pairing on the quartic term and the cubic costate term)
    together with the measured departure on the sample set, and the
    analogous denominator discrepancy in the printed reduced equations.
    The audit passes on self-consistency; the departures are findings,
    not failures.
    """
    if group is not GroupId.SL2R:
        raise DomainError("the audited display is the sl2r closed loop")
    if B is None:
        B = ConnectionCoefficients((1.1, 0.7, 1.3))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.0, 2.0, size=(n_points, 2))
    pts = pts[np.abs(pts[:, 1]) > 1e-3]  # keep p away from the fixed line

    self_res = 0.0
    depart_x = 0.0
    depart_p = 0.0
    for x, p in pts:
        xd_direct, pd_direct = closed_loop_rhs(group, B, I_coeffs, x, p)
        fb = feedback_solve(group, B, I_coeffs, x, p)
        a, b, c = riccati_coefficients(group, fb, B)
        xd_comp = a * x * x + b * x + c
        pd_comp = -(2.0 * a * x + b) * p
        xd_hand, pd_hand = _expanded_substituted_rhs(x, p, B, I_coeffs)
        scale = max(1.0, abs(xd_direct), abs(pd_direct))
        self_res = max(self_res,
                       abs(xd_comp - xd_direct) / scale,
                       abs(pd_comp - pd_direct) / scale,
                       abs(xd_hand - xd_direct) / scale,
                       abs(pd_hand - pd_direct) / scale)
        xd_disp, pd_disp = _displayed_substituted_rhs(x, p, B, I_coeffs)
        depart_x = max(depart_x, abs(xd_direct - xd_disp))
        depart_p = max(depart_p, abs(pd_direct - pd_disp))

    Bp, Bm, B0 = B.diag
    Ip, Im, I0 = I_coeffs
    notes = [
        f"self-consistency residual {self_res:.3e} over {pts.shape[0]} points",
        ("departure from the printed substituted display: the derived x' "
         "pairs B-^2/I- with x^4 and B+^2/I+ with the constant term (the "
         "display swaps them), and the derived p' carries -2 B-^2/I- p^2 x^3 "
         "where the display has -2 B+^2/I+ p^2 x; measured max departure "
         f"x' {depart_x:.3e}, p' {depart_p:.3e} at B = ({Bp}, {Bm}, {B0}), "
         f"I = ({Ip}, {Im}, {I0})"),
        ("printed reduced equations also show I+ in the second-line "
         "denominator where the derivation gives I-; the implementation "
         "follows the derivation"),
    ]
    return CheckResult.from_residual(
        "closed_loop_audit", self_res, 1e-14, details="; ".join(notes))
