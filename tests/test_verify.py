"""Numerical check battery: residual gates, oracles, and error contracts."""

import itertools
import os
import types

import numpy as np
import numpy.testing as npt
import pytest
import sympy as sp

import lsb_lab
from lsb_lab import (
    AlgebraElement,
    CheckResult,
    ConnectionCoefficients,
    DegenerateInputError,
    DivergenceError,
    DomainError,
    GroupId,
    IntegratorConfig,
    SymmetricSolutionParams,
    VerificationReport,
    central_difference,
    check_action_equality,
    check_closed_form,
    check_closed_loop_audit,
    check_conservation,
    check_cross_ratio,
    check_equivalence_rigid,
    check_hamiltonian_conservation,
    check_rk4_order,
    closed_form_symmetric,
    closed_loop_rhs,
    feedback_solve,
    group_identity,
    inertia_diagonal,
    integrate_euler_poincare,
    integrate_extremal,
    integrate_riccati,
    lift_extremal,
    line_generator_polynomials,
    moebius_line,
    quadrature,
    reconstruct_group,
    riccati_coefficients,
)
from lsb_lab.groups import basis
from lsb_lab.scenario import Scenario, load_raw, run_checks
from lsb_lab.verify import (
    _displayed_substituted_rhs,
    _expanded_substituted_rhs,
    min_norm_costate,
)

B_ONE = ConnectionCoefficients.maurer_cartan()
J123 = inertia_diagonal(GroupId.SO3, 1.0, 2.0, 3.0)
OMEGA0 = AlgebraElement(GroupId.SO3, [0.8, 0.3, 0.1])


def _rigid_curve(cfg):
    """Reduced flow with its group curve g' = g xi from the identity."""
    ep = integrate_euler_poincare(GroupId.SO3, J123, OMEGA0, cfg)
    return reconstruct_group(GroupId.SO3, ep, group_identity(GroupId.SO3))


def _rigid_lift(curve):
    """The curve carried to the identity with the minimum-norm costate."""
    x0 = group_identity(GroupId.SO3)
    p0 = min_norm_costate(GroupId.SO3, J123.coeffs, OMEGA0.coeffs, x0.matrix)
    return lift_extremal(curve, x0, p0)


def _symmetric_loop(group, pars, cfg):
    """The closed loop integrated from the formulas' values at t = 0."""
    x0, p0 = closed_form_symmetric(group, pars, 0.0)
    return integrate_extremal(
        moebius_line(group), pars.connection(),
        inertia_diagonal(group, pars.I, pars.I, pars.I0), x0, p0, cfg)


def test_check_result_from_residual():
    # the pass flag is the comparison residual <= tolerance, made once in
    # the constructor; inf and NaN residuals fail
    r = CheckResult("x", 0.5, 1.0, details="fine")
    assert r.passed and r.details == "fine"
    assert CheckResult("x", 1.0, 1.0).passed
    assert not CheckResult("x", 2e-6, 1e-6).passed
    assert not CheckResult("x", np.inf, 1.0).passed
    assert not CheckResult("x", np.nan, 1.0).passed
    assert type(CheckResult("x", np.float64(0.5), 1).max_residual) is float
    d = r.to_dict()
    assert set(d) == {"name", "max_residual", "tolerance", "passed", "details"}


def test_report_aggregation():
    good = CheckResult("a", 0.0, 1.0)
    bad = CheckResult("b", 2.0, 1.0)
    assert VerificationReport((good,)).all_passed
    rep = VerificationReport((good, bad), scenario_digest="beef")
    assert not rep.all_passed
    d = rep.to_dict()
    assert d["all_passed"] is False
    assert d["scenario_digest"] == "beef"
    assert [c["name"] for c in d["checks"]] == ["a", "b"]


def test_central_difference_exact_on_quadratics():
    t = np.linspace(0.0, 2.0, 21)
    vals = 3.0 * t ** 2 - t + 0.5
    deriv = central_difference(t, vals)
    npt.assert_allclose(deriv, 6.0 * t - 1.0, atol=1e-12)
    with pytest.raises(DomainError):
        central_difference(t[:2], vals[:2])
    with pytest.raises(DomainError):
        central_difference(t, vals[:-1])


def test_central_difference_second_order():
    def err(n):
        t = np.linspace(0.0, 1.0, n + 1)
        return np.abs(central_difference(t, np.sin(3.0 * t))
                      - 3.0 * np.cos(3.0 * t)).max()

    assert err(64) / err(128) > 3.5


def test_rigid_equivalence_residuals():
    lift = _rigid_lift(_rigid_curve(IntegratorConfig("rk4", 1e-3, 1.0)))
    entries = check_equivalence_rigid(J123, lift)
    by_name = {e.name: e for e in entries}
    ctrl = by_name["equivalence_rigid.control"]
    cons = by_name["equivalence_rigid.constraint"]
    assert ctrl.passed and cons.passed
    assert ctrl.max_residual == pytest.approx(3.128356e-07, rel=1e-3)
    assert cons.max_residual == pytest.approx(1.821943e-08, rel=1e-3)


def test_rigid_equivalence_rejects_singular_samples():
    curve = _rigid_curve(IntegratorConfig("rk4", 0.1, 0.5))
    # g(0) is the one matrix the lift inverts
    g_bad = curve.g.copy()
    g_bad[0] = 0.0
    with pytest.raises(DomainError, match="singular group sample"):
        _rigid_lift(curve.replace(g=g_bad))
    # a zeroed later sample breaks the control equation there
    g_bad = curve.g.copy()
    g_bad[3] = 0.0
    ctrl, cons = check_equivalence_rigid(
        J123, _rigid_lift(curve.replace(g=g_bad)))
    assert not ctrl.passed and not cons.passed
    # the group curve alone is no lift
    with pytest.raises(DomainError, match="lifted extremal"):
        check_equivalence_rigid(J123, curve)


def test_conservation_drift_at_roundoff():
    ep = integrate_euler_poincare(GroupId.SO3, J123, OMEGA0,
                                  IntegratorConfig("rk4", 1e-3, 1.0))
    energy, casimir = check_conservation(J123, ep)
    assert energy.name == "energy_conservation" and energy.passed
    assert casimir.name == "casimir_conservation" and casimir.passed
    assert energy.max_residual < 1e-13
    assert casimir.max_residual < 1e-13


@pytest.mark.parametrize("group", list(GroupId))
def test_euler_poincare_conserves_energy_and_trace_casimir(group):
    """The energy and the trace-form Casimir mu^T K^-1 mu, with mu = I xi
    and K_ab = tr(E_a E_b), are first integrals of the coadjoint flow on
    every group, and check_conservation reports both.  |I xi|^2, which it
    reported before, is a Casimir only on so3 and su2: its drift read 0.847
    on sl2r and 0.254 on so21 on this flow."""
    I = np.array([1.0, 1.7, 2.3])
    J = inertia_diagonal(group, *I)
    ep = integrate_euler_poincare(
        group, J, AlgebraElement(group, [0.4, -0.3, 0.5]),
        IntegratorConfig("rk4", 1e-3, 2.0))
    energy, entry = check_conservation(J, ep)
    assert energy.max_residual <= 1e-12, energy.details
    assert entry.name == "casimir_conservation" and entry.passed
    E = basis(group)
    mu = ep.xi * I
    K = np.einsum("aij,bji->ab", E, E)
    casimir = np.einsum("na,ab,nb->n", mu, np.linalg.inv(K), mu)
    drift = np.abs(casimir - casimir[0]).max()
    assert drift <= 1e-12
    assert entry.max_residual == drift
    assert f"mu^T K^-1 mu {casimir[0]!r}," in entry.details
    # the same Casimir as tr(M^2) of the momentum matrix M = sum_b
    # (K^-1 mu)_b E_b, an independent route through the matrices
    M = np.einsum("nb,bij->nij", mu @ np.linalg.inv(K), E)
    npt.assert_allclose(np.einsum("nij,nji->n", M, M), casimir,
                        rtol=1e-13, atol=1e-15)


def test_rk4_order_measured_ratio():
    res = check_rk4_order(GroupId.SO3, J123, OMEGA0,
                          IntegratorConfig("rk4", 0.1, 1.0))
    assert res.passed
    # |terminal-error ratio - 16| is small on this smooth flow
    assert res.max_residual == pytest.approx(0.0457, abs=0.02)
    with pytest.raises(DomainError):
        check_rk4_order(GroupId.SO3, J123, OMEGA0,
                        IntegratorConfig("euler", 0.1, 1.0))


def test_rk4_order_refuses_roundoff_regime():
    with pytest.raises(DegenerateInputError):
        check_rk4_order(GroupId.SO3, J123, OMEGA0,
                        IntegratorConfig("rk4", 1e-3, 1.0))


def _translation_family():
    cfg = IntegratorConfig("rk4", 1.0 / 128.0, 0.25)
    n = cfg.n_steps + 1
    xi = np.tile([1.0, 0.0, 0.0], (n, 1))  # constant drift field
    return integrate_riccati(GroupId.SL2R, B_ONE, xi, (0.0, 1.0, 2.0, 4.0),
                             cfg)


def test_cross_ratio_exact_for_translations():
    res = check_cross_ratio(_translation_family())
    assert res.name == "cross_ratio"
    assert res.passed
    assert res.max_residual == 0.0


def test_cross_ratio_input_checks():
    fam = _translation_family()
    with pytest.raises(DomainError):
        check_cross_ratio(fam.replace(x=fam.x[:, :3]))
    twin = fam.replace(x=fam.x[:, [0, 0, 2, 3]])
    with pytest.raises(DegenerateInputError):
        check_cross_ratio(twin)


def test_action_equality_on_rigid_lift():
    cfg = IntegratorConfig("rk4", 1e-3, 1.0)
    x0 = group_identity(GroupId.SO3)
    p0 = 0.5 * AlgebraElement(GroupId.SO3,
                              J123.coeffs * OMEGA0.coeffs).matrix()
    ext = lift_extremal(_rigid_curve(cfg), x0, p0)
    res = check_action_equality(J123, B_ONE, ext)
    assert res.passed
    # the multiplier term pairs p with the measured x' - x xi: a nonzero
    # O(h^2) gap inside the differential-residual tolerance
    assert 0.0 < res.max_residual <= res.tolerance == 1e-5


def test_action_equality_flags_uncontrolled_curves():
    cfg = IntegratorConfig("rk4", 1e-2, 0.5)
    ext = lift_extremal(_rigid_curve(cfg), group_identity(GroupId.SO3),
                        np.zeros((3, 3)))
    broken = ext.replace(x=ext.x + 1.0)
    res = check_action_equality(J123, B_ONE, broken)
    assert not res.passed
    assert res.max_residual == np.inf
    assert "control" in res.details


def _action_case(kind, group, step=1e-2):
    """A line extremal or a rigid lift on a coarse grid, where the lifted
    integrand's penalty (the stencil's truncation error) is well above
    roundoff."""
    cfg = IntegratorConfig("rk4", step, 0.5)
    B = ConnectionCoefficients(np.array([1.1, 0.7, 1.3]))
    J = inertia_diagonal(group, 1.0, 2.0, 1.5)
    if kind == "line":
        x0, p0 = (0.3, -0.6) if group is GroupId.SL2R else (0.2 + 0.1j, 0.5)
        ext = integrate_extremal(moebius_line(group), B, J, x0, p0, cfg)
    else:
        ep = integrate_euler_poincare(
            group, J, AlgebraElement(group, [0.8, 0.3, 0.1]), cfg)
        p0 = 0.1 * np.arange(group.dim ** 2).reshape(group.dim, group.dim)
        if group.is_complex:
            p0 = p0 * (1.0 + 0.5j)
        curve = reconstruct_group(group, ep, group_identity(group))
        ext = lift_extremal(curve, group_identity(group), p0)
    return J, B, ext


@pytest.mark.parametrize("kind,group", [
    ("manifold", GroupId.SO3), ("manifold", GroupId.SU2),
    ("line", GroupId.SL2R), ("line", GroupId.SU2), ("line", GroupId.SO21)])
def test_action_equality_matches_per_sample_reference(kind, group):
    """The check's action integrals equal a sample-by-sample reference
    written out here without the Clebsch-Lin layer: the running cost
    (1/2) xi^T J xi, plus p r on the line or Re tr(p^H r) on the manifold,
    with r = x' - sum_a xi_a X_a(x) and x' by central differences."""
    J, B, ext = _action_case(kind, group)
    xdots = central_difference(ext.times, ext.x)
    if kind == "line":
        rows = line_generator_polynomials(group, B)
    plain, lifted = [], []
    for x, p, xd, xi in zip(ext.x, ext.p, xdots, ext.xi):
        cost = 0.5 * xi @ (J.coeffs * xi)
        if kind == "line":
            r = xd - sum(c * (row[0] + row[1] * x + row[2] * x * x)
                         for c, row in zip(xi, rows))
            penalty = p * r
        else:
            r = xd - x @ AlgebraElement(group, xi).matrix()
            penalty = np.real(np.trace(p.conj().T @ r))
        plain.append(cost)
        lifted.append(cost + penalty)
    S_plain = quadrature(ext.times, np.array(plain, dtype=np.complex128))
    S_lifted = quadrature(ext.times, np.array(lifted, dtype=np.complex128))
    reference = abs(S_lifted - S_plain) / (1.0 + abs(S_plain))
    res = check_action_equality(J, B, ext)
    assert reference > 1e-9
    assert res.max_residual == pytest.approx(reference, rel=1e-8)


@pytest.mark.parametrize("kind,group", [
    ("manifold", GroupId.SO3), ("manifold", GroupId.SU2),
    ("line", GroupId.SL2R), ("line", GroupId.SU2), ("line", GroupId.SO21)])
def test_action_equality_gap_is_second_order(kind, group):
    """The gap is the measured stencil error of the control equation:
    halving the step shrinks it by about 4."""
    coarse, fine = (check_action_equality(*_action_case(kind, group, h))
                    for h in (1e-2, 5e-3))
    assert coarse.passed and fine.passed
    assert 3.5 < coarse.max_residual / fine.max_residual < 4.5


def test_closed_form_gap_reported_honestly():
    """The integrated loop and the formula curves disagree by O(1); the
    check reports the measured gap instead of passing."""
    pars = SymmetricSolutionParams(I=1.0, I0=2.0, xi0=-0.5,
                                   xi_plus0=-1.0, xi_minus0=0.25)
    loop = _symmetric_loop(GroupId.SL2R, pars,
                           IntegratorConfig("rk4", 1e-3, 1.0))
    res = check_closed_form(pars, loop)
    assert not res.passed
    assert res.max_residual == pytest.approx(2.361051, rel=1e-4)
    assert "sup gap" in res.details


def test_closed_form_divergence_becomes_failing_entry():
    # the escaping demo's euler loop diverges: the check's entry fails
    path = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                        "scenarios", "riccati_sl2r_escaping.json")
    res, = run_checks(Scenario(load_raw(path))).checks
    assert res.name == "closed_form"
    assert not res.passed
    assert res.max_residual == np.inf
    assert "diverged near t = 0.885107" in res.details


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the stationary-solution example inherits the formula/loop mismatch: "
    "the substituted field is p times a sum of squares, nonzero at the "
    "alleged rest point; measured gap is O(10)"))
def test_closed_form_stationary_example():
    # zero exponent: alpha = 0 via I0 = I, so the formulas freeze in place
    pars = SymmetricSolutionParams(I=1.0, I0=1.0, xi0=0.5, xi_plus0=0.5,
                                   xi_minus0=0.125)
    try:
        gap = check_closed_form(pars, _symmetric_loop(
            GroupId.SL2R, pars, IntegratorConfig("rk4", 1e-3, 1.0))
        ).max_residual
    except DivergenceError:
        gap = np.inf
    assert gap <= 1e-10


def _scale_costate_rate(monkeypatch, scale):
    """Make the line march step p' scaled by scale (a defect injected into
    the march only; the checks keep their own formulas).  The Clebsch
    costate q gains the rate kappa q, which moves the readout p = q1 u2
    alone: x' and the Lin constraint q^T u = 0 keep their rates."""
    build = lsb_lab.dynamics._clebsch_field

    def defective(*args):
        field = build(*args)

        def scaled(u1, u2, q1, q2):
            du1, du2, dq1, dq2 = field(u1, u2, q1, q2)
            kappa = (scale - 1.0) * (dq1 * u2 + q1 * du2) / (q1 * u2)
            return du1, du2, dq1 + kappa * q1, dq2 + kappa * q2
        return scaled
    monkeypatch.setattr("lsb_lab.dynamics._clebsch_field", defective)


COSTATE_DEFECTS = pytest.mark.parametrize(
    "scale", [1.0, -1.0, 1.01], ids=["true", "flipped", "scaled"])


@COSTATE_DEFECTS
@pytest.mark.parametrize("group,x0,p0", [
    (GroupId.SL2R, 0.3, -0.6),
    (GroupId.SU2, 0.2 + 0.1j, 0.5 - 0.2j),
    (GroupId.SO21, 0.3 - 0.2j, 0.2 + 0.1j),
])
def test_hamiltonian_conservation_catches_costate_defects(
        monkeypatch, group, x0, p0, scale):
    # measured drift at h = 1e-2: <= 1.6e-10 on the true loop, 3.9e-4 and
    # more with a defect
    B = ConnectionCoefficients((1.1, 0.7, 1.3))
    J = inertia_diagonal(group, 1.0, 2.0, 1.5)
    _scale_costate_rate(monkeypatch, scale)
    ext = integrate_extremal(moebius_line(group), B, J, x0, p0,
                             IntegratorConfig("rk4", 1e-2, 1.0))
    res = check_hamiltonian_conservation(B, J, ext)
    assert res.name == "hamiltonian_conservation"
    assert res.passed == (scale == 1.0), res.details


@COSTATE_DEFECTS
def test_hamiltonian_conservation_closes_the_costate_blind_spot(
        monkeypatch, scale):
    """On the symmetric demo a wrong p' passes cross_ratio (it holds for
    any Riccati equation) and action_equality (its precheck reads only
    x'); hamiltonian_conservation is the entry that fails."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                        "scenarios", "riccati_sl2r_symmetric.json")
    raw = load_raw(path)
    raw["checks"] = ["cross_ratio", "action_equality",
                     "hamiltonian_conservation"]
    _scale_costate_rate(monkeypatch, scale)
    passed = {c.name: c.passed for c in run_checks(Scenario(raw)).checks}
    assert passed == {"cross_ratio": True, "action_equality": True,
                      "hamiltonian_conservation": scale == 1.0}


def _scale_feedback_plus(monkeypatch, factor):
    """Make the line march store xi_+ scaled by factor; its (x, p) flow
    is untouched."""
    feedback = lsb_lab.dynamics._line_feedback

    def defective(*args):
        return feedback(*args) * (factor, 1.0, 1.0)
    monkeypatch.setattr("lsb_lab.dynamics._line_feedback", defective)


def _scale_reduced_field(monkeypatch, factor):
    build = lsb_lab.dynamics._euler_poincare_field

    def defective(group, J):
        field = build(group, J)
        return lambda *v: tuple(factor * a for a in field(*v))
    monkeypatch.setattr("lsb_lab.dynamics._euler_poincare_field", defective)


def _perturb_first_inertia(monkeypatch, eps):
    """Make the reduced march use J with its first coefficient times
    1 + eps."""
    build = lsb_lab.dynamics._euler_poincare_field

    def defective(group, J):
        I = J.coeffs.copy()
        I[0] *= 1.0 + eps
        return build(group, lsb_lab.InertiaOperator(group, I))
    monkeypatch.setattr("lsb_lab.dynamics._euler_poincare_field", defective)


def _third_order_stepper(monkeypatch):
    """Kutta's third-order scheme in place of every reduced-flow step."""
    def stepper(method, f, h, n):
        def step(k, y):
            a = f(*y)
            b = f(*(v + 0.5 * h * da for v, da in zip(y, a)))
            c = f(*(v + h * (2.0 * db - da) for v, da, db in zip(y, a, b)))
            return tuple(v + h / 6.0 * (da + 4.0 * db + dc)
                         for v, da, db, dc in zip(y, a, b, c))
        return step
    monkeypatch.setattr("lsb_lab.dynamics._autonomous_step", stepper)


_LINE_CHECKS = ["cross_ratio", "action_equality", "hamiltonian_conservation"]
_RIGID_CHECKS = ["equivalence_rigid", "energy_conservation",
                 "casimir_conservation", "rk4_order", "action_equality"]

# (defect, injection, scenario kind, the check that must catch it)
_DEFECTS = [
    ("pdot_flipped", lambda mp: _scale_costate_rate(mp, -1.0), "line",
     "hamiltonian_conservation"),
    ("pdot_scaled", lambda mp: _scale_costate_rate(mp, 1.01), "line",
     "hamiltonian_conservation"),
    ("pdot_zero", lambda mp: _scale_costate_rate(mp, 0.0), "line",
     "hamiltonian_conservation"),
    ("feedback_plus", lambda mp: _scale_feedback_plus(mp, 1.0 + 1e-3),
     "line", "action_equality"),
    ("field_flipped", lambda mp: _scale_reduced_field(mp, -1.0), "rigid",
     "equivalence_rigid.constraint"),
    ("field_scaled", lambda mp: _scale_reduced_field(mp, 1.0 + 1e-3),
     "rigid", "equivalence_rigid.constraint"),
    ("first_inertia", lambda mp: _perturb_first_inertia(mp, 1e-4), "rigid",
     "energy_conservation"),
    ("third_order", _third_order_stepper, "rigid", "rk4_order"),
]
_DEFECT_GROUPS = {"line": ("sl2r", "su2"), "rigid": ("so3", "su2")}


def _defect_scenario(kind, group):
    # the demos on a coarse grid, h = 5e-3
    name = ("riccati_sl2r_symmetric.json" if kind == "line"
            else f"rigid_body_{group}.json")
    raw = load_raw(os.path.join(os.path.dirname(__file__), os.pardir,
                                "demos", "scenarios", name))
    raw.update(group=group, step=5e-3,
               checks=_LINE_CHECKS if kind == "line" else _RIGID_CHECKS)
    return Scenario(raw)


@pytest.mark.parametrize("inject,kind,group,caught_by", [
    pytest.param(inject, kind, group, caught_by, id=f"{defect}-{group}")
    for defect, inject, kind, caught_by in _DEFECTS
    for group in _DEFECT_GROUPS[kind]])
def test_defect_matrix(monkeypatch, inject, kind, group, caught_by):
    """Each defect injected into one binding of `dynamics` fails a check
    that passes on the true march.

    Sensitivity floor, measured on these grids and not asserted:
    - the first inertia entry times 1 + 1e-6 fails nothing: energy drift
      1.5e-8 and Casimir drift 3e-8 against 1e-6, the constraint 8.2e-7
      (so3) and 4.3e-6 (su2) against 2.5e-4. At 1 + 1e-4 the constraint
      still passes (3.7e-5, 7.5e-5); energy and Casimir catch it;
    - I_+ times 1 + eps in both the feedback and the loop makes the march a
      true extremal of another problem. Only hamiltonian_conservation sees
      it, with H drift about 0.17 eps on sl2r and 2.5 eps on su2, so
      eps = 1e-6 passes on sl2r (1.7e-7) and eps = 1e-5 is caught.
    """
    clean = {c.name: c.passed
             for c in run_checks(_defect_scenario(kind, group)).checks}
    assert all(clean.values()), clean
    inject(monkeypatch)
    broken = {c.name: c.passed
              for c in run_checks(_defect_scenario(kind, group)).checks}
    assert not broken[caught_by], broken


def test_closed_loop_audit_self_consistency():
    res = check_closed_loop_audit()
    assert res.name == "closed_loop_audit"
    assert res.passed
    assert res.max_residual < 1e-14
    assert "over 100 points" in res.details
    # the audit must surface where the two written forms disagree
    assert "departure" in res.details
    assert "x^4" in res.details
    assert "measured max departure" in res.details


def test_closed_loop_audit_matches_per_point_reference():
    # the audit evaluates its closed loop on all points of its 10 x 10 grid
    # on [-2, 2]^2 at once; rebuilt per point through the public
    # closed_loop_rhs, feedback_solve and riccati_coefficients, with the
    # audit's inputs, the residual agrees bit for bit
    group, I_coeffs = GroupId.SL2R, (1.0, 2.0, 1.5)
    J = inertia_diagonal(group, *I_coeffs)
    B = ConnectionCoefficients((1.1, 0.7, 1.3))
    axis = np.linspace(-2.0, 2.0, 10)
    ref = 0.0
    for x, p in itertools.product(axis, axis):
        xd, pd = closed_loop_rhs(group, B, J, x, p)
        a, b, c = riccati_coefficients(
            group, feedback_solve(group, B, J, x, p), B)
        xd_hand, pd_hand = _expanded_substituted_rhs(x, p, B, I_coeffs)
        scale = max(1.0, abs(xd), abs(pd))
        ref = max(ref, abs(a * x * x + b * x + c - xd) / scale,
                  abs(-(2.0 * a * x + b) * p - pd) / scale,
                  abs(xd_hand - xd) / scale, abs(pd_hand - pd) / scale)
    assert check_closed_loop_audit().max_residual == ref


def test_substituted_loop_matches_symbolic_derivation():
    # an independent derivation of the audited sl2r loop: the generators
    # from the Moebius action of the basis matrices, the feedback from
    # stationarity of H = p sum_a xi_a X_a - sum_a I_a xi_a^2 / 2, and the
    # loop as xdot = dH/dp, pdot = -dH/dx at the feedback
    x, p, t = sp.symbols("x p t")
    Bs, Is = sp.symbols("B_p B_m B_0"), sp.symbols("I_p I_m I_0")
    xis = sp.symbols("xi_p xi_m xi_0")
    X = []
    for E, b in zip(basis(GroupId.SL2R), Bs):
        g = sp.eye(2) + t * b * sp.Matrix(E).applyfunc(sp.nsimplify)
        moved = (g[0, 0] * x + g[0, 1]) / (g[1, 0] * x + g[1, 1])
        X.append(sp.expand(sp.diff(moved, t).subs(t, 0)))
    # the generators are the rows of line_generator_polynomials
    B_num = (1.1, 0.7, 1.3)
    rows = line_generator_polynomials(GroupId.SL2R,
                                      ConnectionCoefficients(B_num))
    for Xa, row in zip(X, rows):
        Xa = sp.Poly(Xa.subs(dict(zip(Bs, B_num))), x)
        coeffs = [Xa.coeff_monomial(x ** k) for k in range(3)]
        npt.assert_array_equal(np.array(coeffs, dtype=float), row)

    H = (p * sum(xi * Xa for xi, Xa in zip(xis, X))
         - sum(i * xi ** 2 for i, xi in zip(Is, xis)) / 2)
    feedback = sp.solve([sp.diff(H, xi) for xi in xis], xis, dict=True)
    assert feedback == [{xi: p * Xa / i for xi, Xa, i in zip(xis, X, Is)}]
    xdot = sp.diff(H, p).subs(feedback[0])
    pdot = (-sp.diff(H, x)).subs(feedback[0])
    Q = sum(Xa ** 2 / i for Xa, i in zip(X, Is))
    assert sp.expand(xdot - p * Q) == 0
    assert sp.expand(pdot + p ** 2 * sp.diff(Q, x) / 2) == 0

    B = types.SimpleNamespace(diag=Bs)
    xd_hand, pd_hand = _expanded_substituted_rhs(x, p, B, Is)
    assert sp.expand(xd_hand - xdot) == 0
    assert sp.expand(pd_hand - pdot) == 0

    # the printed display differs by exactly the two swaps the audit's
    # details name: x' exchanges the (B+, I+) and (B-, I-) terms between
    # x^4 and the constant, and p' has -2 B+^2/I+ p^2 x in place of
    # -2 B-^2/I- p^2 x^3
    Bp, Bm, _ = Bs
    Ip, Im, _ = Is
    xd_disp, pd_disp = _displayed_substituted_rhs(x, p, B, Is)
    swap = {Bp: Bm, Bm: Bp, Ip: Im, Im: Ip}
    assert sp.expand(xd_disp - xdot.subs(swap, simultaneous=True)) == 0
    assert sp.expand(xd_disp - xdot) != 0
    assert sp.expand(pd_disp - pdot - (2 * Bm ** 2 / Im * p ** 2 * x ** 3
                                       - 2 * Bp ** 2 / Ip * p ** 2 * x)) == 0
