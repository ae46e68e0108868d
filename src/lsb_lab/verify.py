"""Certification checks for trajectories, assembled into structured reports.

Each check measures one identity on concrete numeric data and returns a
CheckResult whose pass flag is determined by residual against tolerance.
Checks are pure functions of their inputs: rerunning one on the same data
reproduces the residual bitwise (fixed iteration order, no randomness).
"""

import numpy as np

from .actions import (
    ConnectionCoefficients,
    clebsch_lagrangian,
    generator_field,
    group_manifold,
    infinitesimal_action,
    line_generator_polynomials,
    moebius_line,
    quadratic_cost,
)
from .dynamics import (
    IntegratorConfig,
    Trajectory,
    _chart_rates,
    _line_feedback,
    closed_form_symmetric,
    integrate_euler_poincare,
    quadrature,
)
from ._record import Record
from .errors import DegenerateInputError, DomainError
from .groups import (
    AlgebraElement,
    GroupId,
    InertiaOperator,
    _BASES,
    inertia_diagonal,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "central_difference",
    "min_norm_costate",
    "check_equivalence_rigid",
    "check_cross_ratio",
    "check_action_equality",
    "check_closed_form",
    "check_conservation",
    "check_hamiltonian_conservation",
    "check_rk4_order",
    "check_closed_loop_audit",
]


class CheckResult(Record):
    """One named residual measurement with its gate; it passes when
    max_residual <= tolerance."""

    __slots__ = ("name", "max_residual", "tolerance", "passed", "details")

    def __init__(self, name: str, max_residual: float, tolerance: float,
                 details: str = ""):
        # NaN and inf residuals compare as failing
        r = float(max_residual)
        self._set(name=name, max_residual=r, tolerance=float(tolerance),
                  passed=bool(r <= tolerance), details=details)

    def to_dict(self):
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "details": self.details,
        }


class VerificationReport(Record):
    """The checks of one run, in order, with the scenario's digest."""

    __slots__ = ("checks", "scenario_digest")

    def __init__(self, checks, scenario_digest: str = ""):
        self._set(checks=tuple(checks), scenario_digest=scenario_digest)

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


def _residual_tolerance(step):
    # differential residuals inherit the O(h^2) stencil error
    return max(1e-6, 10.0 * step * step)


def _frobenius_max(arr):
    # max over samples of the Frobenius norm of each matrix slice
    flat = arr.reshape(arr.shape[0], -1)
    return float(np.sqrt((np.abs(flat) ** 2).sum(axis=1)).max())


def min_norm_costate(group: GroupId, I, xi0, x0m):
    """Costate p0 at the state matrix x0m matching the momentum I xi0, for
    the inertia coefficients I.

    Momentum matching at t = 0 pins only the skew part of x0^H p0; the
    minimum-norm choice zeroes the rest: x0^H p0 = M0 / 2.
    """
    M0 = AlgebraElement(group, np.asarray(I) * np.asarray(xi0)).matrix()
    return np.linalg.solve(np.asarray(x0m).conj().T, M0 / 2.0)


def check_equivalence_rigid(J: InertiaOperator, lift):
    """Certify the two-sided correspondence on a rigid-body run.

    Inputs: inertia J and a lifted extremal (see dynamics.lift_extremal)
    carrying the control samples xi, the states x and the costates p.
    Measures (i) the control-equation residual x' - x xi, with x' by central
    differences, and (ii) the momentum matching residual x^H p - p^H x - J xi
    along the flow.  Returns two CheckResult entries.
    """
    if any(getattr(lift, f) is None for f in ("xi", "x", "p")):
        raise DomainError("a lifted extremal (lift_extremal) is required")
    group, xs, n = lift.group, lift.x, lift.times.size
    field = infinitesimal_action(group_manifold(group), None, lift.xi, xs)
    r_control = _frobenius_max(central_difference(lift.times, xs) - field)

    matched = np.einsum("kij,kjl->kil", xs.conj().transpose(0, 2, 1), lift.p)
    Msamples = matched - matched.conj().transpose(0, 2, 1)
    Jmats = np.tensordot(lift.xi * J.coeffs, _BASES[group],
                         axes=(1, 0)).astype(group.scalar_dtype)
    r_constraint = _frobenius_max(Msamples - Jmats)

    tol = _residual_tolerance(lift.step)
    return (
        CheckResult(
            "equivalence_rigid.control", r_control, tol,
            details=f"max |x' - x xi| = {r_control:.6e} over {n} samples"),
        CheckResult(
            "equivalence_rigid.constraint", r_constraint, tol,
            details=("max |x^H p - p^H x - J xi| = "
                     f"{r_constraint:.6e} over {n} samples")),
    )


def check_cross_ratio(family: Trajectory):
    """Constancy of the cross-ratio along four solutions of one line flow.

    family.x holds one solution per column, shape (n+1, 4), as
    dynamics.integrate_riccati returns the family of four starts.
    """
    if np.shape(family.x)[1:] != (4,):
        raise DomainError("a family of four solutions, x of shape "
                          "(n+1, 4), required")
    starts = family.x[0]
    scale = max(1.0, float(np.abs(starts).max()))
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(starts[i] - starts[j]) <= 1e-12 * scale:
                raise DegenerateInputError(
                    f"solutions {i} and {j} coincide at t = 0")
    x1, x2, x3, x4 = family.x.T
    cr = ((x1 - x3) * (x2 - x4)) / ((x1 - x4) * (x2 - x3))
    cr0 = cr[0]
    drift = float(np.abs(cr - cr0).max() / abs(cr0))
    return CheckResult(
        "cross_ratio", drift, 1e-8,
        details=f"cross-ratio {cr0!r}, relative drift {drift:.6e}")


def check_action_equality(J: InertiaOperator, B: ConnectionCoefficients,
                          traj: Trajectory):
    """Equality of the plain and lifted action integrals on an extremal.

    The plain integrand is the running cost (1/2) xi^T J xi
    (`quadratic_cost`); the lifted one is the Clebsch Lagrangian
    (`clebsch_lagrangian`), which adds the costate paired with the control
    residual r = x' - (action of xi at x), x' by central differences of the
    stored states.  On a controlled curve r is the stencil's truncation
    error, so the gap between the two integrals is a measured O(h^2)
    quantity, gated like every differential residual here.

    Precondition checked first, on the same r: the curve satisfies its
    control equation, with |r| normalized by the local field scale so that
    steep-but-faithful stretches are not penalized for the stencil's own
    truncation error.  A curve failing it gets residual inf.
    """
    if traj.x is None or traj.p is None or traj.xi is None:
        raise DomainError("extremal with stored control, state and costate "
                          "samples required")
    group, times, x, p, xi = traj.group, traj.times, traj.x, traj.p, traj.xi
    space = moebius_line(group) if x.ndim == 1 else group_manifold(group)
    tol = _residual_tolerance(traj.step)
    xdot = central_difference(times, x)
    field = infinitesimal_action(space, B, xi, x)
    r = xdot - field
    pre_res = np.abs(r)
    pre_scale = np.abs(field)
    while pre_res.ndim > 1:
        pre_res = pre_res.sum(axis=-1)
        pre_scale = pre_scale.sum(axis=-1)
    r_pre = float((pre_res / (1.0 + pre_scale)).max())
    if r_pre > tol:
        return CheckResult(
            "action_equality", np.inf, tol,
            details=("control-equation precheck failed: central-difference "
                     f"residual {r_pre:.6e} > {tol:.6e}; the action "
                     "identity is only asserted on curves satisfying the "
                     "control equation"))

    # complex, so that S_plain and S_lifted print alike on every group
    S_plain = quadrature(times, quadratic_cost(J, xi).astype(np.complex128))
    S_lifted = quadrature(times, clebsch_lagrangian(
        space, B, J, x, p, xdot, xi).astype(np.complex128))
    gap = abs(S_lifted - S_plain) / (1.0 + abs(S_plain))
    return CheckResult(
        "action_equality", gap, tol,
        details=(f"S_plain = {S_plain!r}, S_lifted = {S_lifted!r}, "
                 f"precheck residual {r_pre:.6e}"))


def check_closed_form(params, traj: Trajectory):
    """Gap between a line extremal of the closed loop and the printed
    formulas, evaluated on the extremal's grid.

    traj must be integrated with the connection and inertia of params.
    """
    xf, pf = closed_form_symmetric(traj.group, params, traj.times)
    gap_x = float(np.abs(traj.x - xf).max())
    gap_p = float(np.abs(traj.p - pf).max())
    gap = max(gap_x, gap_p)
    return CheckResult(
        "closed_form", gap, 1e-7,
        details=(f"sup gap x {gap_x:.6e}, p {gap_p:.6e}; "
                 f"max |x_num| {float(np.abs(traj.x).max()):.6g}"))


def check_conservation(J: InertiaOperator, traj: Trajectory):
    """Drift of the reduced energy and of the trace-form Casimir.

    With the momentum mu = I xi and the trace form K_ab = tr(E_a E_b) of
    the algebra basis, the Casimir is mu^T K^-1 mu.  Both are first
    integrals of the reduced flow on all four groups; drift is measured in
    absolute terms against the initial value.  Returns two entries.
    """
    if traj.xi is None:
        raise DomainError("control samples required")
    energy = quadratic_cost(J, traj.xi)
    mu = traj.xi * J.coeffs
    E = _BASES[traj.group]
    K = np.einsum("aij,bji->ab", E, E)
    casimir = np.einsum("na,ab,nb->n", mu, np.linalg.inv(K), mu)
    d_e = float(np.abs(energy - energy[0]).max())
    d_c = float(np.abs(casimir - casimir[0]).max())
    return (
        CheckResult(
            "energy_conservation", d_e, 1e-6,
            details=f"energy {energy[0]!r}, max drift {d_e:.6e}"),
        CheckResult(
            "casimir_conservation", d_c, 1e-6,
            details=f"mu^T K^-1 mu {casimir[0]!r}, max drift {d_c:.6e}"),
    )


def check_hamiltonian_conservation(B: ConnectionCoefficients,
                                   J: InertiaOperator, traj: Trajectory):
    """Drift of the Hamiltonian along a line extremal.

    The closed loop is the Hamiltonian flow of H = p^2 Q(x) / 2 with
    Q(x) = sum_a X_a(x)^2 / I_a, so H is a first integral of a true
    extremal.  H is evaluated here on the stored (x, p) from the
    connection's generator polynomials X_a and the diagonal coefficients
    I_a of J, not from the march's own field, so a wrong costate equation
    shows as drift (the cross-ratio holds for any Riccati equation, and the
    action-equality precheck reads only x').  Reports
    max |H - H0| / (1 + |H0|).
    """
    if traj.x is None or traj.p is None:
        raise DomainError("line extremal with state and costate samples "
                          "required")
    p = traj.p
    X = generator_field(moebius_line(traj.group), B, traj.x)
    H = 0.5 * p * p * (X * X / J.coeffs).sum(axis=1)
    drift = float(np.abs(H - H[0]).max() / (1.0 + abs(H[0])))
    return CheckResult(
        "hamiltonian_conservation", drift, 1e-6,
        details=f"H {H[0]!r}, relative drift {drift:.6e}")


def check_rk4_order(group: GroupId, J: InertiaOperator, xi0: AlgebraElement,
                    cfg: IntegratorConfig):
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

    def terminal(step):
        sub = IntegratorConfig("rk4", step, cfg.horizon)
        return integrate_euler_poincare(group, J, xi0, sub).xi[-1]

    ref = terminal(cfg.step / 8.0)
    e1 = float(np.abs(terminal(cfg.step) - ref).max())
    e2 = float(np.abs(terminal(cfg.step / 2.0) - ref).max())
    floor = 1e-13 * max(1.0, float(np.abs(ref).max()))
    if e1 < floor or e2 == 0.0:
        raise DegenerateInputError(
            f"terminal errors at roundoff level ({e1:.3e}); "
            "use a coarser step for the order measurement")
    ratio = e1 / e2
    return CheckResult(
        "rk4_order", abs(ratio - 16.0), 4.0,
        details=(f"terminal-error ratio {ratio:.4f} "
                 f"(errors {e1:.3e} / {e2:.3e}, band [12, 20])"))


# the audited closed loop: sl2r with these connection and inertia
# coefficients, at the 100 points of a fixed 10 x 10 grid on [-2, 2]^2
# (no grid point has |p| < 0.22, so none sits on the fixed line p = 0)
_AUDIT_B = (1.1, 0.7, 1.3)
_AUDIT_I = (1.0, 2.0, 1.5)

# The two written forms spell powers as products: one point and an array
# of points then round alike (numpy's array power may differ from the
# scalar one in the last bit).


def _displayed_substituted_rhs(x, p, B: ConnectionCoefficients, I_coeffs):
    # the printed substituted system, transcribed as displayed
    Bp, Bm, B0 = B.diag
    Ip, Im, I0 = I_coeffs
    xdot = (Bp * Bp / Ip * x * x * x * x + 4.0 * B0 * B0 / I0 * x * x
            + Bm * Bm / Im) * p
    pdot = -(2.0 * Bp * Bp / Ip + 4.0 * B0 * B0 / I0) * p * p * x
    return xdot, pdot


def _expanded_substituted_rhs(x, p, B: ConnectionCoefficients, I_coeffs):
    # substituting the stationarity values into the control coefficients
    # by hand gives these polynomials; an independent algebraic path to
    # the same vector field as the feedback/coefficient composition
    Bp, Bm, B0 = B.diag
    Ip, Im, I0 = I_coeffs
    xdot = (Bm * Bm / Im * x * x * x * x + 4.0 * B0 * B0 / I0 * x * x
            + Bp * Bp / Ip) * p
    pdot = -(2.0 * Bm * Bm / Im * x * x * x + 4.0 * B0 * B0 / I0 * x) * p * p
    return xdot, pdot


def check_closed_loop_audit():
    """Audit the substituted sl2r closed loop for internal consistency.

    At _AUDIT_B and _AUDIT_I, on the 100 (x, p) points of a fixed 10 x 10
    grid on [-2, 2]^2, reads the field integrate_extremal marches (the
    Clebsch field at u = (x, 1), q = (p, -p x), as closed_loop_rhs reads
    it) and compares it against two independent forms of the substituted
    loop: the optimal feedback (feedback_solve) composed with the
    coefficient map, and a hand-expanded polynomial form of the same
    substitution; all must agree to near machine precision.  Every point
    is evaluated at once, as arrays.
    The entry's details record where the self-consistent system departs
    from the printed substituted display (coefficient pairing on the
    quartic term and the cubic costate term) together with the measured
    departure on the grid, and the analogous denominator
    discrepancy in the printed reduced equations.
    The audit passes on self-consistency; the departures are findings,
    not failures.
    """
    group, B = GroupId.SL2R, ConnectionCoefficients(_AUDIT_B)
    axis = np.linspace(-2.0, 2.0, 10)
    x, p = (g.ravel() for g in np.meshgrid(axis, axis))

    # each form as the rows (x', p') over the grid
    J = inertia_diagonal(group, *_AUDIT_I)
    direct = np.array(_chart_rates(group, B, J, x, p))
    fb = _line_feedback(group, B, J, x, p)
    _, b, a = (fb @ line_generator_polynomials(group, B)).T
    composed = np.array([infinitesimal_action(moebius_line(group), B, fb, x),
                         -(2.0 * a * x + b) * p])
    hand = np.array(_expanded_substituted_rhs(x, p, B, _AUDIT_I))
    scale = np.maximum(1.0, abs(direct).max(axis=0))
    self_res = float(max((abs(form - direct) / scale).max()
                         for form in (composed, hand)))
    depart_x, depart_p = abs(direct - np.array(_displayed_substituted_rhs(
        x, p, B, _AUDIT_I))).max(axis=1).tolist()

    Bp, Bm, B0 = B.diag
    Ip, Im, I0 = _AUDIT_I
    notes = [
        f"self-consistency residual {self_res:.3e} over {x.size} points",
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
    return CheckResult(
        "closed_loop_audit", self_res, 1e-14, details="; ".join(notes))
