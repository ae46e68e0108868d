"""End-to-end gates at their stated tolerances.

Every test prints exactly one PASS/FAIL line (bypassing capture, so the
lines land in the live pytest output) and then asserts the gate.  Gates
that are out of reach for structural reasons are marked xfail with the
reason spelled out; their FAIL lines still report the measured values.
"""

import numpy as np
import pytest

from lsb_lab import (
    AlgebraElement,
    ConnectionCoefficients,
    DivergenceError,
    GroupId,
    IntegratorConfig,
    SymmetricSolutionParams,
    basis,
    bracket,
    check_action_equality,
    check_closed_form,
    check_closed_loop_audit,
    check_conservation,
    check_cross_ratio,
    check_equivalence_rigid,
    check_rk4_order,
    closed_form_symmetric,
    group_identity,
    inertia_diagonal,
    integrate_euler_poincare,
    integrate_extremal,
    integrate_riccati,
    lift_extremal,
    line_generator_polynomials,
    moebius_closure_constants,
    moebius_line,
    reconstruct_group,
    structure_constants,
)
from lsb_lab.verify import min_norm_costate

B_ONE = ConnectionCoefficients.maurer_cartan()
LINE_GROUPS = [GroupId.SL2R, GroupId.SU2, GroupId.SO21]

# favorable consistent minus-slot seeds for the three symmetric solution sets
SYMMETRIC_PARAMS = {
    GroupId.SL2R: SymmetricSolutionParams(I=1.0, I0=2.0, xi0=0.5,
                                          xi_plus0=1.0, xi_minus0=-0.25),
    GroupId.SU2: SymmetricSolutionParams(I=1.0, I0=2.0, xi0=0.5,
                                         xi_plus0=1.0,
                                         xi_minus0=1j * np.sqrt(2.0)),
    GroupId.SO21: SymmetricSolutionParams(I=1.0, I0=2.0, xi0=0.5,
                                          xi_plus0=1.0, xi_minus0=0.0),
}


def _emit(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}", flush=True)
    return ok


def test_bracket_tables_and_exact_jacobi(capsys):
    e = basis(GroupId.SL2R)
    table = {(0, 1): [0, 0, 1], (0, 2): [-2, 0, 0], (1, 2): [0, 2, 0]}
    table_ok = True
    for (a, b), want in table.items():
        ea = AlgebraElement(GroupId.SL2R, np.eye(3)[a])
        eb = AlgebraElement(GroupId.SL2R, np.eye(3)[b])
        got = bracket(ea, eb).coeffs
        table_ok &= np.array_equal(got, np.array(want, dtype=np.float64))
        comm = e[a] @ e[b] - e[b] @ e[a]
        table_ok &= np.array_equal(bracket(ea, eb).matrix(), comm)

    worst = 0
    for gid in GroupId:
        C = structure_constants(gid)
        Ci = [[[int(C[a, b, c]) for c in range(3)] for b in range(3)]
              for a in range(3)]
        assert np.array_equal(np.asarray(Ci, dtype=np.float64), C)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    for ee in range(3):
                        s = sum(Ci[a][b][d] * Ci[d][c][ee]
                                + Ci[b][c][d] * Ci[d][a][ee]
                                + Ci[c][a][d] * Ci[d][b][ee]
                                for d in range(3))
                        worst = max(worst, abs(s))
    ok = table_ok and worst == 0
    _emit(capsys, ok, "algebra tables",
          f"sl2r bracket table exact; Jacobi sums over integers: max |sum| "
          f"= {worst} (exact zero required)")
    assert ok


def test_generator_closure_at_random_points(capsys):
    rng = np.random.default_rng(101)
    worst_point = 0.0
    sign_ok = True
    for gid in LINE_GROUPS:
        rows = line_generator_polynomials(gid, B_ONE).astype(np.complex128)
        tensor = moebius_closure_constants(gid, B_ONE)
        sign_ok &= np.allclose(tensor, -structure_constants(gid), atol=1e-14)
        pts = rng.uniform(-2.0, 2.0, 100)
        if gid.is_complex:
            pts = pts + 1j * rng.uniform(-2.0, 2.0, 100)

        def val(row, x):
            return row[0] + row[1] * x + row[2] * x * x

        def dval(row, x):
            return row[1] + 2.0 * row[2] * x

        for a in range(3):
            for b in range(3):
                comm = (val(rows[a], pts) * dval(rows[b], pts)
                        - val(rows[b], pts) * dval(rows[a], pts))
                span = sum(tensor[a, b, c] * val(rows[c], pts)
                           for c in range(3))
                worst_point = max(worst_point,
                                  float(np.abs(comm - span).max()))
    ok = sign_ok and worst_point <= 1e-12
    _emit(capsys, ok, "generator closure",
          f"pointwise commutator residual {worst_point:.3e} <= 1e-12 at 100 "
          f"seeded points per group; realized constants are the negated "
          f"bracket table (the line action composes contravariantly)")
    assert ok


def test_rigid_body_equivalence_and_conservation(capsys):
    J = inertia_diagonal(GroupId.SO3, 1.0, 2.0, 3.0)
    om0 = AlgebraElement(GroupId.SO3, [0.8, 0.3, 0.1])
    cfg = IntegratorConfig("rk4", 1e-3, 1.0)
    ep = integrate_euler_poincare(GroupId.SO3, J, om0, cfg)
    x0 = group_identity(GroupId.SO3)
    curve = reconstruct_group(GroupId.SO3, ep, x0)
    lift = lift_extremal(curve, x0, min_norm_costate(
        GroupId.SO3, J.coeffs, om0.coeffs, x0.matrix))
    ctrl, cons = check_equivalence_rigid(J, lift)

    long_ep = integrate_euler_poincare(GroupId.SO3, J, om0,
                                       IntegratorConfig("rk4", 1e-3, 10.0))
    energy, casimir = check_conservation(J, long_ep)
    ok = (ctrl.max_residual <= 1e-5 and cons.max_residual <= 1e-5
          and energy.max_residual <= 1e-6 and casimir.max_residual <= 1e-6)
    _emit(capsys, ok, "rigid-body equivalence",
          f"control residual {ctrl.max_residual:.3e} <= 1e-5, constraint "
          f"residual {cons.max_residual:.3e} <= 1e-5; over T=10: energy "
          f"drift {energy.max_residual:.3e} and Casimir drift "
          f"{casimir.max_residual:.3e} <= 1e-6")
    assert ok


def test_symmetric_exponent_and_product_identity(capsys):
    pars = SYMMETRIC_PARAMS[GroupId.SL2R]
    t = np.linspace(0.0, 1.0, 101)
    x, p = closed_form_symmetric(GroupId.SL2R, pars, t)
    drift = float(np.abs(x * p - pars.C0).max())
    ok = pars.alpha == 1.0 and drift <= 1e-9
    _emit(capsys, ok, "symmetric exponent",
          f"derived exponent alpha = {pars.alpha} (exactly 1); formula "
          f"product x(t) p(t) - C0 drift {drift:.3e} <= 1e-9")
    assert ok


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "structural mismatch: the feedback-substituted loop forces sign(xdot) = "
    "sign(p), which the decaying formula curves violate; the loop trajectory "
    "additionally blows up inside [0,1] for the sl2r seed values"))
def test_symmetric_formulas_match_integrated_loop(capsys):
    cfg = IntegratorConfig("rk4", 1e-4, 1.0)
    gaps = {}
    for gid in LINE_GROUPS:
        pars = SYMMETRIC_PARAMS[gid]
        x0, p0 = closed_form_symmetric(gid, pars, 0.0)
        try:
            loop = integrate_extremal(
                moebius_line(gid), pars.connection(),
                inertia_diagonal(gid, pars.I, pars.I, pars.I0), x0, p0, cfg)
        except DivergenceError:
            # a loop that escapes has no finite gap, as in verify
            gaps[gid.value] = np.inf
            continue
        gaps[gid.value] = check_closed_form(pars, loop).max_residual
    ok = all(g <= 1e-7 for g in gaps.values())
    _emit(capsys, ok, "symmetric closed forms vs loop",
          "sup gaps on [0,1] at h=1e-4: "
          + ", ".join(f"{k} {v:.6e}" for k, v in gaps.items())
          + " (gate 1e-7; the formulas do not solve the substituted loop)")
    assert ok


def test_central_control_component_constant(capsys):
    # the constancy is a property of the su2 reduced flow with equal
    # plus/minus inertia: the Euler equation's zero slot is proportional
    # to I_plus - I_minus and vanishes termwise.  On sl2r the coadjoint
    # flow moves xi_0 at a rate proportional to xi_minus^2 - xi_plus^2
    J = inertia_diagonal(GroupId.SU2, 1.0, 1.0, 2.0)
    xi0 = AlgebraElement(GroupId.SU2, [1.0, -0.25, 0.5])
    ep = integrate_euler_poincare(GroupId.SU2, J, xi0,
                                  IntegratorConfig("rk4", 1e-3, 1.0))
    drift = float(np.abs(ep.xi[:, 2] - ep.xi[0, 2]).max())
    ok = drift <= 1e-10
    _emit(capsys, ok, "central control component",
          f"|xi_0(t) - xi_0(0)| = {drift:.3e} over [0,1] on the symmetric "
          f"su2 reduced flow, I = (1, 1, 2) (gate 1e-10)")
    assert ok


def _correspondence_gap(group, h):
    """Max velocity gap over [0, 0.5] between a line extremal's control,
    mapped by xi' = -B xi, and the rigid partner: the reduced flow for the
    inertia I' = I / B^2, marched from xi'(0) alone."""
    B, I = np.array([1.1, 0.7, 1.3]), np.array([1.0, 2.0, 1.5])
    cfg = IntegratorConfig("rk4", h, 0.5)
    ext = integrate_extremal(moebius_line(group), ConnectionCoefficients(B),
                             inertia_diagonal(group, *I), 0.3, 0.8, cfg)
    mapped = -B * ext.xi
    rigid = integrate_euler_poincare(
        group, inertia_diagonal(group, *(I / B ** 2)),
        AlgebraElement(group, mapped[0]), cfg)
    return float(np.abs(rigid.xi - mapped).max())


def test_line_extremals_are_rigid_body_flows(capsys):
    # the paper's correspondence: each line extremal's control is the body
    # velocity of a Lagrangian system with symmetry.  The two marches share
    # only the start, so the gap is the two RK4 errors.  On so21, where |xi|
    # grows to 21, it is 7.9e-6 at h = 1e-3, so so21 is measured at
    # h = 1e-4, and it falls about 16-fold as h halves
    steps = {GroupId.SL2R: 1e-3, GroupId.SU2: 1e-3, GroupId.SO21: 1e-4}
    gaps = {g.value: _correspondence_gap(g, h) for g, h in steps.items()}
    ratio = _correspondence_gap(GroupId.SO21, 2e-4) / gaps["so21"]
    ok = max(gaps.values()) <= 1e-7 and 12.0 <= ratio <= 20.0
    _emit(capsys, ok, "line/rigid correspondence",
          "max velocity gap over [0, 0.5]: "
          + ", ".join(f"{g.value} {gaps[g.value]:.3e} at h={h:g}"
                      for g, h in steps.items())
          + f" (gate 1e-7); so21 gap ratio h=2e-4 / h=1e-4 {ratio:.2f} "
          "(band [12, 20])")
    assert ok


def test_lifted_action_equals_plain_action(capsys):
    J = inertia_diagonal(GroupId.SO3, 1.0, 2.0, 3.0)
    om0 = AlgebraElement(GroupId.SO3, [0.8, 0.3, 0.1])
    cfg = IntegratorConfig("rk4", 1e-3, 1.0)
    ep = integrate_euler_poincare(GroupId.SO3, J, om0, cfg)
    p0 = 0.5 * AlgebraElement(GroupId.SO3, J.coeffs * om0.coeffs).matrix()
    x0 = group_identity(GroupId.SO3)
    lift = lift_extremal(reconstruct_group(GroupId.SO3, ep, x0), x0, p0)
    entries = {"rigid lift": check_action_equality(J, B_ONE, lift)}

    # line extremals from the symmetric seed points; the sl2r one blows up
    # near t = 0.886, so its action is certified on [0, 0.6]
    spans = {GroupId.SL2R: 0.6, GroupId.SU2: 1.0, GroupId.SO21: 1.0}
    for gid in LINE_GROUPS:
        pars = SYMMETRIC_PARAMS[gid]
        x0, p0 = closed_form_symmetric(gid, pars, 0.0)
        J_line = inertia_diagonal(gid, pars.I, pars.I, pars.I0)
        ext = integrate_extremal(moebius_line(gid), pars.connection(),
                                 J_line, x0, p0,
                                 IntegratorConfig("rk4", 1e-4, spans[gid]))
        entries[f"{gid.value} loop [0,{spans[gid]:g}]"] = \
            check_action_equality(J_line, pars.connection(), ext)
    ok = all(e.passed for e in entries.values())
    _emit(capsys, ok, "action equality",
          "relative gap |S_lifted - S_plain| / (1 + |S_plain|): "
          + ", ".join(f"{k} {e.max_residual:.1e} (gate {e.tolerance:.0e})"
                      for k, e in entries.items()))
    assert ok


def test_cross_ratio_superposition_quadratic_field(capsys):
    cfg = IntegratorConfig("rk4", 1e-3, 0.2)
    n = cfg.n_steps + 1
    xi = np.tile([0.0, -1.0, 0.0], (n, 1))  # induced field x^2
    starts = (1.0, 2.0, 3.0, 4.0)
    fam = integrate_riccati(GroupId.SL2R, B_ONE, xi, starts, cfg)
    res = check_cross_ratio(fam)
    t = cfg.times()
    exact_gap = max(float(np.abs(x - s / (1.0 - s * t)).max())
                    for s, x in zip(starts, fam.x.T))
    ok = res.passed and exact_gap <= 1e-6
    _emit(capsys, ok, "cross-ratio superposition",
          f"relative drift {res.max_residual:.3e} <= 1e-8 for four "
          f"solutions of xdot = x^2 on [0, 0.2]; max gap to the exact "
          f"family {exact_gap:.3e}")
    assert ok


def test_substituted_loop_audit_reports_departures(capsys):
    res = check_closed_loop_audit()
    documented = ("departure" in res.details
                  and "measured max departure" in res.details)
    ok = res.passed and res.max_residual <= 1e-14 and documented
    _emit(capsys, ok, "substituted-loop audit",
          f"self-consistency residual {res.max_residual:.3e} <= 1e-14; "
          f"report documents the coefficient departures "
          f"({len(res.details)} chars)")
    assert ok


def test_rk4_terminal_error_ratio(capsys):
    J = inertia_diagonal(GroupId.SO3, 1.0, 2.0, 3.0)
    om0 = AlgebraElement(GroupId.SO3, [0.8, 0.3, 0.1])
    res = check_rk4_order(GroupId.SO3, J, om0,
                          IntegratorConfig("rk4", 0.1, 1.0))
    ratio_window = res.max_residual <= 4.0  # |ratio - 16| <= 4
    _emit(capsys, ratio_window, "rk4 convergence order",
          f"terminal-error ratio between h and h/2 is 16 +/- "
          f"{res.max_residual:.3f}, inside [12, 20]")
    assert ratio_window
