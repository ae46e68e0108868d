"""Reduced flows, reconstruction, extremals, closed forms, quadrature."""

import hashlib
import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import solve_ivp

import lsb_lab.dynamics
from lsb_lab import (
    AlgebraElement,
    ConnectionCoefficients,
    DivergenceError,
    DomainError,
    GroupId,
    IntegratorConfig,
    PoleError,
    SymmetricSolutionParams,
    Trajectory,
    basis,
    closed_form_symmetric,
    closed_loop_rhs,
    euler_poincare_rhs,
    exp_map,
    feedback_solve,
    group_identity,
    group_manifold,
    inertia_anticommutator,
    inertia_diagonal,
    integrate_euler_poincare,
    integrate_extremal,
    integrate_riccati,
    lift_extremal,
    line_generator_polynomials,
    moebius_line,
    objective_value,
    quadrature,
    reconstruct_group,
    riccati_coefficients,
    structure_constants,
)
from lsb_lab.dynamics import (
    DIVERGENCE_CAP,
    _euler_poincare_field,
    _euler_poincare_step,
    _line_loop,
    _line_step,
    _march,
    _modulus,
    _riccati_step,
)

B_ONE = ConnectionCoefficients.maurer_cartan()


def test_integrator_config_validation():
    cfg = IntegratorConfig("rk4", 0.25, 1.0)
    assert cfg.n_steps == 4
    npt.assert_allclose(cfg.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(DomainError):
        IntegratorConfig("rk5", 0.1, 1.0)
    with pytest.raises(DomainError):
        IntegratorConfig("rk4", -0.1, 1.0)
    with pytest.raises(DomainError):
        IntegratorConfig("rk4", 2.0, 1.0)
    with pytest.raises(DomainError):
        IntegratorConfig("rk4", 0.3, 1.0)  # horizon not a step multiple
    with pytest.raises(DomainError, match="exceeds the limit"):
        IntegratorConfig("rk4", 2.0 ** -30, 1.0)  # 1.07e9 samples to store


def test_trajectory_grid_validation():
    times = np.array([0.0, 0.1, 0.2])
    tr = Trajectory(group=GroupId.SO3, times=times, xi=np.zeros((3, 3)))
    assert tr.step == pytest.approx(0.1)
    with pytest.raises(DomainError):
        Trajectory(group=GroupId.SO3, times=np.array([0.0, 0.1, 0.35]),
                   xi=np.zeros((3, 3)))
    with pytest.raises(DomainError):
        Trajectory(group=GroupId.SO3, times=times, xi=np.zeros((4, 3)))


def test_reduced_flow_matches_classical_equations():
    """The so3 reduced flow is the classical free-spin system; compare the
    terminal state against an adaptive reference solver."""
    I1, I2, I3 = 1.0, 2.0, 3.0

    def classical(t, w):
        return [(I2 - I3) / I1 * w[1] * w[2],
                (I3 - I1) / I2 * w[2] * w[0],
                (I1 - I2) / I3 * w[0] * w[1]]

    ref = solve_ivp(classical, (0.0, 1.0), [0.8, 0.3, 0.1],
                    rtol=1e-12, atol=1e-14, t_eval=[1.0])
    J = inertia_diagonal(GroupId.SO3, I1, I2, I3)
    tr = integrate_euler_poincare(
        GroupId.SO3, J, AlgebraElement(GroupId.SO3, [0.8, 0.3, 0.1]),
        IntegratorConfig("rk4", 1e-3, 1.0))
    assert np.abs(tr.xi[-1] - ref.y[:, 0]).max() < 1e-12


def test_principal_axis_spin_is_stationary():
    J = inertia_diagonal(GroupId.SO3, 1.0, 2.0, 3.0)
    xi0 = AlgebraElement(GroupId.SO3, [0.0, 0.0, 0.9])
    npt.assert_array_equal(euler_poincare_rhs(GroupId.SO3, J, xi0).coeffs,
                           np.zeros(3))
    tr = integrate_euler_poincare(GroupId.SO3, J, xi0,
                                  IntegratorConfig("rk4", 1e-2, 1.0))
    assert np.all(tr.xi == tr.xi[0])


def _reference_rk4(f, y0, h, n):
    # textbook RK4 on numpy arrays, one per-point right-hand side per stage
    ys = [np.asarray(y0)]
    for _ in range(n):
        y = ys[-1]
        k1 = f(y)
        k2 = f(y + (h / 2.0) * k1)
        k3 = f(y + (h / 2.0) * k2)
        k4 = f(y + h * k3)
        ys.append(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(ys)


def _reference_euler(f, y0, h, n):
    # textbook explicit Euler on numpy arrays
    ys = [np.asarray(y0)]
    for _ in range(n):
        ys.append(ys[-1] + h * f(ys[-1]))
    return np.array(ys)


REFERENCES = {"rk4": _reference_rk4, "euler": _reference_euler}
EP_CASES = [
    (GroupId.SO3, [0.8, 0.3, -0.4]),
    (GroupId.SU2, [0.6, -0.2, 0.5]),
    (GroupId.SL2R, [0.3, -0.5, 0.4]),
    (GroupId.SO21, [0.4 + 0.1j, -0.3, 0.2 - 0.2j]),  # complex start
]


EP_I = (1.3, 0.6, 2.2)
DIAG_I = (2.0, 1.5, 1.0)
SU2_COMPLEX_START = [0.6 + 0.1j, -0.2, 0.5 - 0.3j]


def _coadjoint_oracle(group, I):
    """The reduced field from the basis matrices alone, as a function of
    one coefficient array: with mu = I xi, mu'_b = sum_c mu_c
    coeffs_c([xi, e_b]), the matrix commutators of basis(group) split on
    the basis matrices by least squares, so mu' = ad*_xi mu."""
    E = basis(group)
    span = E.reshape(3, -1).T
    I = np.asarray(I, dtype=np.float64)

    def f(xi):
        X = np.tensordot(xi, E, axes=(0, 0))
        mu = I * xi
        return np.array([mu @ np.linalg.lstsq(span, (X @ e - e @ X).ravel(),
                                              rcond=None)[0]
                         for e in E]) / I
    return f


def _dense_field(group, I):
    """The reduced field as the 27-term sum over the whole table
    T[c, a, b] = I_a C[b, c, a] (1 / I_c), exact zeros included: component
    c is sum_a xi_a (sum_b T[c, a, b] xi_b), on Python scalars."""
    I = np.asarray(I, dtype=np.float64)
    T = (np.einsum("a,bca->cab", I, structure_constants(group))
         * (1.0 / I)[:, None, None])
    (a0, a1, a2, a3, a4, a5, a6, a7, a8), \
        (b0, b1, b2, b3, b4, b5, b6, b7, b8), \
        (c0, c1, c2, c3, c4, c5, c6, c7, c8) = T.reshape(3, 9).tolist()

    def field(v0, v1, v2):
        return (v0 * (a0 * v0 + a1 * v1 + a2 * v2)
                + v1 * (a3 * v0 + a4 * v1 + a5 * v2)
                + v2 * (a6 * v0 + a7 * v1 + a8 * v2),
                v0 * (b0 * v0 + b1 * v1 + b2 * v2)
                + v1 * (b3 * v0 + b4 * v1 + b5 * v2)
                + v2 * (b6 * v0 + b7 * v1 + b8 * v2),
                v0 * (c0 * v0 + c1 * v1 + c2 * v2)
                + v1 * (c3 * v0 + c4 * v1 + c5 * v2)
                + v2 * (c6 * v0 + c7 * v1 + c8 * v2))
    return field


def _euler_poincare_reference_gap(method, group, xi0, I=EP_I):
    """Relative sup gap between the closed-form core and the method stepped
    through the matrix oracle, for the inertia coefficients I."""
    J = inertia_diagonal(group, *I)
    cfg = IntegratorConfig(method, 0.01, 1.0)
    tr = integrate_euler_poincare(group, J, AlgebraElement(group, xi0), cfg)
    ref = REFERENCES[method](
        _coadjoint_oracle(group, I),
        np.asarray(xi0, dtype=group.scalar_dtype), cfg.step, cfg.n_steps)
    return np.abs(tr.xi - ref).max() / max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("group,xi0", EP_CASES)
def test_euler_poincare_matches_reference_rk4(group, xi0):
    assert _euler_poincare_reference_gap("rk4", group, xi0) <= 1e-13


@pytest.mark.parametrize("group,xi0", EP_CASES)
def test_euler_poincare_matches_reference_euler(group, xi0):
    assert _euler_poincare_reference_gap("euler", group, xi0) <= 1e-13


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("group,xi0", EP_CASES + [
    (GroupId.SU2, SU2_COMPLEX_START),
])
def test_euler_poincare_diagonal_inertia_matches_reference(method, group,
                                                           xi0):
    assert _euler_poincare_reference_gap(method, group, xi0, DIAG_I) <= 1e-13


def test_euler_poincare_rhs_is_the_marched_field():
    J = inertia_diagonal(GroupId.SL2R, *EP_I)
    xi = AlgebraElement(GroupId.SL2R, [0.3, -0.5, 0.4])
    npt.assert_allclose(euler_poincare_rhs(GroupId.SL2R, J, xi).coeffs,
                        _coadjoint_oracle(GroupId.SL2R, EP_I)(xi.coeffs),
                        rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("group", [GroupId.SO3, GroupId.SU2, GroupId.SL2R,
                                   GroupId.SO21],
                         ids=["so3-diag", "su2-diag", "sl2r-diag",
                              "so21-diag"])
def test_euler_poincare_closure_follows_the_table(monkeypatch, group):
    """The generated six-product closure is the dense 27-term sum with its
    exact-zero terms dropped: equal values at every point, signed-zero
    inputs included, and equal marches bit for bit."""
    J = inertia_diagonal(group, *DIAG_I)
    cfg = IntegratorConfig("rk4", 0.01, 1.0)
    starts = [AlgebraElement(group, xi0) for xi0 in
              ([0.8, 0.3, -0.4], [0.0, -0.0, 0.9], [-0.0, 0.5, 0.0])]
    field, dense = _euler_poincare_field(group, J), _dense_field(group, DIAG_I)
    marched = [integrate_euler_poincare(group, J, s, cfg).xi for s in starts]
    rng = np.random.default_rng(5)
    points = rng.uniform(-2.0, 2.0, size=(50, 3)).tolist()
    points += [[0.0, -0.0, 0.7], [-0.0, 0.3, 0.0], [0.0, 0.0, 0.0],
               [-0.0, -0.0, -0.0]]
    if group.is_complex:
        points += (rng.uniform(-2.0, 2.0, size=(20, 3))
                   + 1j * rng.uniform(-2.0, 2.0, size=(20, 3))).tolist()
    for v in points:
        assert field(*v) == dense(*v)
    monkeypatch.setattr("lsb_lab.dynamics._euler_poincare_field",
                        lambda g, J: _dense_field(g, J.coeffs))
    for start, xi in zip(starts, marched):
        assert (integrate_euler_poincare(group, J, start, cfg).xi.tobytes()
                == xi.tobytes())


def test_euler_poincare_field_is_compiled_once_per_pattern():
    # so3, su2 and so21 share the Euler pattern; sl2r has its own
    codes = {g: _euler_poincare_field(g, inertia_diagonal(g, *I)).__code__
             for g in GroupId for I in (EP_I, DIAG_I)}
    assert len(set(codes.values())) == 2
    assert codes[GroupId.SO3] is codes[GroupId.SU2] is codes[GroupId.SO21]
    assert codes[GroupId.SL2R] is not codes[GroupId.SO3]


def _complex_march(group, J, xi0, cfg):
    # the reduced flow marched on complex scalars whatever the start
    field = lsb_lab.dynamics._euler_poincare_field(group, J)
    ys = _march(_euler_poincare_step(cfg.method, field, cfg.step),
                [complex(c) for c in xi0.coeffs], cfg.times(), "{t}")
    ys = np.array(ys, dtype=np.complex128)
    return ys if group.is_complex else ys.real


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("group", list(GroupId))
@pytest.mark.parametrize("form", ["diag", "dense"])
def test_real_start_marches_like_the_complex_march(monkeypatch, method,
                                                   group, form):
    """A real start marches on floats; the samples equal the complex
    march's bit for bit, zero signs included.  A start holding a negative
    zero keeps the complex march, whose signed-zero arithmetic differs.
    The dense form marches the 27-term sum in place of the generated
    closure: its exact-zero terms make signed zeros of their own, and the
    agreement holds for it too."""
    if form == "dense":
        monkeypatch.setattr("lsb_lab.dynamics._euler_poincare_field",
                            lambda g, J: _dense_field(g, J.coeffs))
    J = inertia_diagonal(group, *DIAG_I)
    cfg = IntegratorConfig(method, 0.01, 1.0)
    for xi0 in ([0.6, -0.2, 0.5], [0.0, 0.0, 0.9], [0.7, 0.0, -0.0],
                [-0.0, 0.4, 0.0]):
        start = AlgebraElement(group, xi0)
        xi = integrate_euler_poincare(group, J, start, cfg).xi
        assert xi.dtype == group.scalar_dtype
        assert xi.tobytes() == _complex_march(group, J, start, cfg).tobytes()


def test_su2_real_start_stays_real():
    J = inertia_diagonal(GroupId.SU2, 1.0, 2.0, 3.0)
    xi = integrate_euler_poincare(
        GroupId.SU2, J, AlgebraElement(GroupId.SU2, [0.8, 0.3, -0.4]),
        IntegratorConfig("rk4", 1e-3, 1.0)).xi
    assert xi.dtype == np.complex128
    assert np.all(xi.imag == 0)
    assert not np.signbit(xi.imag).any()


def test_su2_complex_start_marches_complex():
    # its reference gap is one of the diagonal-inertia cases above
    J = inertia_diagonal(GroupId.SU2, *DIAG_I)
    xi = integrate_euler_poincare(
        GroupId.SU2, J, AlgebraElement(GroupId.SU2, SU2_COMPLEX_START),
        IntegratorConfig("rk4", 0.01, 1.0)).xi
    assert np.abs(xi.imag[1:]).min() > 0


@pytest.mark.parametrize("group,d,diag", [
    (GroupId.SO3, [0.7, 1.3, 2.1], (1.3 + 2.1, 0.7 + 2.1, 0.7 + 1.3)),
    (GroupId.SU2, [0.9, 1.7], (0.9 + 1.7,) * 3),
])
def test_anticommutator_inertia_marches_like_its_diagonal(group, d, diag):
    cfg = IntegratorConfig("rk4", 1e-3, 1.0)
    xi0 = AlgebraElement(group, [0.8, 0.3, -0.4])
    anti = integrate_euler_poincare(group, inertia_anticommutator(group, d),
                                    xi0, cfg).xi
    npt.assert_array_equal(
        anti, integrate_euler_poincare(
            group, inertia_diagonal(group, *diag), xi0, cfg).xi)


LINE_CASES = [
    (GroupId.SL2R, 0.3, -0.6),
    (GroupId.SU2, 0.2 + 0.1j, 0.5 - 0.2j),
    (GroupId.SO21, 0.3 - 0.2j, 0.2 + 0.1j),
]
LINE_B = ConnectionCoefficients(np.array([1.1, 0.7, 1.3]))
LINE_I = (1.0, 2.0, 1.5)
# sl2r inertia: equal transverse coefficients, and LINE_I
I_SYM = inertia_diagonal(GroupId.SL2R, 1.0, 1.0, 2.0)
I_LINE = inertia_diagonal(GroupId.SL2R, *LINE_I)


def _line_extremal_reference_gap(method, group, x0, p0):
    # relative sup gap to the method stepped through closed_loop_rhs
    cfg = IntegratorConfig(method, 0.01, 1.0)
    J = inertia_diagonal(group, *LINE_I)
    ext = integrate_extremal(moebius_line(group), LINE_B, J, x0, p0, cfg)
    ref = REFERENCES[method](
        lambda y: np.array(closed_loop_rhs(group, LINE_B, J, *y)),
        np.array([x0, p0], dtype=group.scalar_dtype), cfg.step, cfg.n_steps)
    return max(np.abs(ext.x - ref[:, 0]).max(),
               np.abs(ext.p - ref[:, 1]).max()) / max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("group,x0,p0", LINE_CASES)
def test_line_extremal_matches_reference_rk4(group, x0, p0):
    assert _line_extremal_reference_gap("rk4", group, x0, p0) <= 1e-13


@pytest.mark.parametrize("group,x0,p0", LINE_CASES)
def test_line_extremal_matches_reference_euler(group, x0, p0):
    assert _line_extremal_reference_gap("euler", group, x0, p0) <= 1e-13


@pytest.mark.parametrize("group,x0,p0", LINE_CASES)
def test_line_extremal_conserves_hamiltonian(group, x0, p0):
    """H = p^2 Q(x) / 2 with Q = sum_a X_a^2 / I_a is a first integral of
    the closed loop; on the stored feedback it reads sum_a I_a xi_a^2 / 2."""
    ext = integrate_extremal(moebius_line(group), LINE_B,
                             inertia_diagonal(group, *LINE_I), x0, p0,
                             IntegratorConfig("rk4", 1e-3, 1.0))
    H = 0.5 * (np.asarray(LINE_I) * ext.xi ** 2).sum(axis=1)
    assert abs(H[0]) > 0.01
    assert np.abs(H - H[0]).max() <= 1e-12


def test_reconstruction_constant_control_exact():
    xi = AlgebraElement(GroupId.SO3, [0.4, -0.2, 0.7])
    cfg = IntegratorConfig("rk4", 0.05, 1.0)
    n = cfg.n_steps + 1
    flat = Trajectory(group=GroupId.SO3, times=cfg.times(),
                      xi=np.tile(xi.coeffs, (n, 1)))
    g_body = reconstruct_group(GroupId.SO3, flat, group_identity(GroupId.SO3))
    exact = exp_map(AlgebraElement(GroupId.SO3, 1.0 * xi.coeffs)).matrix
    npt.assert_allclose(g_body.g[-1], exact, atol=1e-13)


def test_reconstruction_preserves_constraint_long_run():
    from lsb_lab import GroupElement, constraint_residual
    J = inertia_diagonal(GroupId.SO3, 1.0, 2.0, 3.0)
    cfg = IntegratorConfig("rk4", 1e-2, 10.0)
    ep = integrate_euler_poincare(
        GroupId.SO3, J, AlgebraElement(GroupId.SO3, [0.8, 0.3, 0.1]), cfg)
    rec = reconstruct_group(GroupId.SO3, ep, group_identity(GroupId.SO3))
    worst = max(constraint_residual(GroupElement(GroupId.SO3, g))
                for g in rec.g[::50])
    assert worst < 1e-12


def test_reconstruction_input_checks():
    times = np.array([0.0, 0.1, 0.2])
    bare = Trajectory(group=GroupId.SO3, times=times, xi=np.zeros((3, 3)))
    with pytest.raises(DomainError):
        reconstruct_group(GroupId.SO3, bare, group_identity(GroupId.SU2))
    no_xi = Trajectory(group=GroupId.SO3, times=times)
    with pytest.raises(DomainError):
        reconstruct_group(GroupId.SO3, no_xi, group_identity(GroupId.SO3))


@pytest.mark.parametrize("rate,escape,last", [(3.0, 6.15, 614),
                                              (300.0, 0.07, 6)])
def test_reconstruction_divergence_reported(rate, escape, last):
    # the constant control rate * E_2 on sl2r makes g(t) = exp(t rate E_2)
    # grow like e^{rate t}; the product is guarded once, after it has run
    # on past the first out-of-range sample in inf/NaN, and raises without
    # a numpy warning (tier-1 runs -W error)
    cfg = IntegratorConfig("rk4", 1e-2, 40.0)
    flat = Trajectory(group=GroupId.SL2R, times=cfg.times(),
                      xi=np.tile([0.0, 0.0, rate], (cfg.n_steps + 1, 1)))
    with pytest.raises(DivergenceError) as info:
        reconstruct_group(GroupId.SL2R, flat, group_identity(GroupId.SL2R))
    err = info.value
    assert str(err) == ("group element left the finite range near "
                        f"t = {escape:g}")
    assert err.escape_time == pytest.approx(escape, rel=1e-12)
    assert err.last_index == last
    assert len(err.states) == last + 1
    npt.assert_array_equal(err.states[0], np.eye(2))
    assert np.abs(err.states[-1]).max() <= DIVERGENCE_CAP


def test_manifold_lift_constant_control():
    """With frozen control the lift is the exponential curve."""
    xi = AlgebraElement(GroupId.SO3, [0.3, -0.5, 0.4])
    cfg = IntegratorConfig("rk4", 1e-3, 1.0)
    n = cfg.n_steps + 1
    flat = Trajectory(group=GroupId.SO3, times=cfg.times(),
                      xi=np.tile(xi.coeffs, (n, 1)))
    curve = reconstruct_group(GroupId.SO3, flat, group_identity(GroupId.SO3))
    x0 = exp_map(AlgebraElement(GroupId.SO3, [0.1, 0.2, -0.3]))
    p0 = np.zeros((3, 3))
    ext = lift_extremal(curve, x0, p0)
    exact = x0.matrix @ exp_map(xi).matrix
    npt.assert_allclose(ext.x[-1], exact, atol=1e-12)
    npt.assert_array_equal(ext.p, np.zeros_like(ext.p))
    # a trajectory stores what was integrated or transported, never the
    # control field on its samples
    assert Trajectory.__slots__ == ("group", "times", "xi", "g", "x", "p")


def test_manifold_lift_requires_control():
    cfg = IntegratorConfig("rk4", 0.1, 1.0)
    J = inertia_diagonal(GroupId.SO3, 1.0, 2.0, 3.0)
    # the manifold lift is no integration: integrate_extremal points to it
    with pytest.raises(DomainError, match="lift_extremal"):
        integrate_extremal(group_manifold(GroupId.SO3), B_ONE, J,
                           group_identity(GroupId.SO3), np.zeros((3, 3)), cfg)
    ep = integrate_euler_poincare(
        GroupId.SO3, J, AlgebraElement(GroupId.SO3, [0.8, 0.3, 0.1]), cfg)
    with pytest.raises(DomainError, match="group samples"):
        lift_extremal(ep, group_identity(GroupId.SO3), np.zeros((3, 3)))


def _lift_xi(t):
    # a smooth control curve with every slot time-dependent
    return [0.5 + 0.3 * t, -0.4 * np.cos(2.0 * t), 0.3 + 0.2 * np.sin(3.0 * t)]


def _lift_gap(group, h):
    """Sup gap between lift_extremal and RK4 on x' = x xi(t), p' = p xi(t)
    with the exact control at the stage times, from g0 != x0."""
    dtype = group.scalar_dtype
    cfg = IntegratorConfig("rk4", h, 1.0)
    times = cfg.times()
    curve = reconstruct_group(
        group, Trajectory(group=group, times=times,
                          xi=np.array([_lift_xi(t) for t in times],
                                      dtype=dtype)),
        exp_map(AlgebraElement(group, [-0.2, 0.1, 0.4])))
    x0 = exp_map(AlgebraElement(group, [0.1, 0.2, -0.3]))
    d = group.dim
    p0 = 0.1 * np.arange(d * d).reshape(d, d)
    if group.is_complex:
        p0 = p0 * (1.0 + 0.5j)
    lift = lift_extremal(curve, x0, p0)

    def ximat(t):
        return AlgebraElement(group, _lift_xi(t)).matrix()

    y = np.vstack([x0.matrix, p0]).astype(dtype)  # rows of x, then of p
    ref = [y]
    for t in times[:-1]:
        a, m, b = ximat(t), ximat(t + h / 2.0), ximat(t + h)
        k1 = y @ a
        k2 = (y + (h / 2.0) * k1) @ m
        k3 = (y + (h / 2.0) * k2) @ m
        k4 = (y + h * k3) @ b
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ref.append(y)
    ref = np.array(ref)
    return max(np.abs(lift.x - ref[:, :d]).max(),
               np.abs(lift.p - ref[:, d:]).max())


@pytest.mark.parametrize("group", list(GroupId))
def test_lift_matches_reference_rk4(group):
    """The lift carries the midpoint-exponential group curve, second order
    in h: halving the step shrinks its gap to RK4 by about 4."""
    coarse, fine = _lift_gap(group, 1e-3), _lift_gap(group, 5e-4)
    assert coarse < 1e-6  # 1.7e-7 to 2.3e-7 on the four groups
    assert 3.5 < coarse / fine < 4.5


def test_line_extremal_conserves_slot_momentum():
    """The closed loop on the line keeps p (1 + x^2) constant for the
    equal-transverse-coefficient cost; drift stays at integrator roundoff."""
    ext = integrate_extremal(moebius_line(GroupId.SL2R), B_ONE,
                             I_SYM, 0.5, -1.0,
                             IntegratorConfig("rk4", 1e-3, 1.0))
    mom = ext.p * (1.0 + ext.x ** 2)
    assert mom[0] == pytest.approx(-1.25, abs=1e-15)
    assert np.abs(mom - mom[0]).max() < 1e-11


def test_line_extremal_stores_feedback_and_rhs():
    ext = integrate_extremal(moebius_line(GroupId.SL2R), B_ONE,
                             I_SYM, 0.5, -1.0,
                             IntegratorConfig("rk4", 1e-2, 0.2))
    for k in (0, 7, 20):
        xi = feedback_solve(GroupId.SL2R, B_ONE, I_SYM,
                            ext.x[k], ext.p[k])
        npt.assert_array_equal(ext.xi[k], xi.coeffs)
        # the stored feedback's control field is the closed loop's rhs
        a, b, c = riccati_coefficients(GroupId.SL2R, xi, B_ONE)
        xd, pd = closed_loop_rhs(GroupId.SL2R, B_ONE, I_SYM,
                                 ext.x[k], ext.p[k])
        assert a * ext.x[k] ** 2 + b * ext.x[k] + c == pytest.approx(
            xd, abs=1e-14)
        assert -(2.0 * a * ext.x[k] + b) * ext.p[k] == pytest.approx(
            pd, abs=1e-14)


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("group,x0,p0", LINE_CASES)
def test_line_extremal_controls_equal_per_sample_feedback(method, group, x0,
                                                          p0):
    # the stored controls come from one array pass over the marched
    # samples; each row equals the feedback at that sample on scalars
    J = inertia_diagonal(group, *LINE_I)
    ext = integrate_extremal(moebius_line(group), LINE_B, J, x0, p0,
                             IntegratorConfig(method, 0.01, 1.0))
    ref = np.array([feedback_solve(group, LINE_B, J, x, p).coeffs
                    for x, p in zip(ext.x, ext.p)])
    assert ext.xi.dtype == ref.dtype == group.scalar_dtype
    npt.assert_array_equal(ext.xi, ref)


def test_line_extremal_divergence_reported():
    with pytest.raises(DivergenceError) as info:
        integrate_extremal(moebius_line(GroupId.SL2R), B_ONE,
                           I_SYM, 0.5, 1.0,
                           IntegratorConfig("euler", 1e-3, 1.0))
    err = info.value
    assert err.escape_time == pytest.approx(0.9682780395712847, rel=1e-9)
    assert err.last_index == 963
    assert "0.968" in str(err)


def test_line_extremal_rk4_divergence_reported():
    # exact pole at t* = (arctan 0.5 + pi/2) / 2.5 = 0.8138; the fixed rk4
    # step crosses it and the state leaves the cap two steps later
    with pytest.raises(DivergenceError) as info:
        integrate_extremal(moebius_line(GroupId.SL2R), B_ONE,
                           I_SYM, 0.5, -2.0,
                           IntegratorConfig("rk4", 1e-2, 2.0))
    err = info.value
    assert err.escape_time == pytest.approx(0.83, rel=1e-12)
    assert err.last_index == 82
    assert "(last finite sample at t = 0.82)" in str(err)


def _expected_escape(y, nxt, t_prev, t, extrapolate):
    # the escape time from the per-component modulus of the states
    # either side of the failing step
    mags = [_modulus(v) for v in nxt]
    prev_mag = max(_modulus(v) for v in y)
    new_mag = max(mags) if all(map(math.isfinite, mags)) else math.inf
    if extrapolate and prev_mag < new_mag < math.inf:
        return t + (1.0 / new_mag) / ((1.0 / prev_mag - 1.0 / new_mag)
                                      / (t - t_prev))
    return t


@pytest.mark.parametrize("extrapolate", [False, True])
@pytest.mark.parametrize("bad", [
    complex(1.5e308, 1.5e308),  # finite parts, modulus beyond float range
    math.nan,
    math.nextafter(DIVERGENCE_CAP, math.inf),
    -1j * math.nextafter(DIVERGENCE_CAP, math.inf),
])
def test_march_guard_stops_on_out_of_range_component(bad, extrapolate):
    # a hand-made advance doubles the first component until step 3 puts
    # bad in the second; the march must stop there with a DivergenceError
    times = np.arange(8) * 0.25

    def advance(k, y):
        return [2.0 * y[0], bad if k == 3 else y[1] + 1j]

    with pytest.raises(DivergenceError) as info:
        _march(advance, [1.0, 0.5j], times, "escaped near t = {t:.6g}",
               extrapolate=extrapolate)
    err = info.value
    assert err.last_index == 3
    assert err.states == [[1.0, 0.5j], [2.0, 1.5j], [4.0, 2.5j],
                          [8.0, 3.5j]]
    expected = _expected_escape([8.0, 3.5j], [16.0, bad], times[3],
                                times[4], extrapolate)
    assert err.escape_time == expected
    assert str(err) == f"escaped near t = {expected:.6g}"


def test_march_guard_keeps_values_at_the_cap():
    times = np.arange(4) * 0.5
    cap = DIVERGENCE_CAP
    ys = _march(lambda k, y: [-cap, 1j * cap, complex(0.6 * cap, 0.8 * cap)],
                [0.0, 0.0, 0.0], times, "escaped near t = {t:.6g}")
    assert len(ys) == times.size


def test_driven_line_flow_exact_solution():
    # frozen control with quadratic coefficient one: x(t) = x0 / (1 - x0 t)
    cfg = IntegratorConfig("rk4", 1e-3, 0.5)
    n = cfg.n_steps + 1
    xi = np.tile([0.0, -1.0, 0.0], (n, 1))
    tr = integrate_riccati(GroupId.SL2R, B_ONE, xi, 1.0, cfg)
    exact = 1.0 / (1.0 - cfg.times())
    assert np.abs(tr.x - exact).max() < 1e-10


def test_driven_line_flow_escapes_past_pole():
    cfg = IntegratorConfig("rk4", 1e-3, 1.5)
    n = cfg.n_steps + 1
    xi = np.tile([0.0, 1.0, 0.0], (n, 1))  # field -x^2, pole of x(t) at t = 1
    with pytest.raises(DivergenceError) as info:
        integrate_riccati(GroupId.SL2R, B_ONE, xi, -1.0, cfg)
    assert info.value.escape_time == pytest.approx(1.001, abs=1e-6)
    assert info.value.last_index == 1000


def test_driven_line_flow_grid_checked():
    cfg = IntegratorConfig("rk4", 1e-2, 0.5)
    with pytest.raises(DomainError):
        integrate_riccati(GroupId.SL2R, B_ONE, np.zeros((7, 3)), 1.0, cfg)


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("gid,starts", [
    (GroupId.SL2R, [0.3, 0.7, -0.1, 1.2]),
    (GroupId.SU2, [0.3 + 0.1j, 0.7, -0.1 - 0.2j, 1.2j]),
    (GroupId.SO21, [0.3 + 0.1j, 0.7, -0.1 - 0.2j, 0.5j]),
])
def test_driven_line_family_columns_equal_single_marches(gid, starts,
                                                         method):
    # one march carries the four starts; each member keeps its own
    # arithmetic, so each column is its single-start march bit for bit
    cfg = IntegratorConfig(method, 1e-2, 1.0)
    t = cfg.times()
    xi = np.stack([0.3 * np.cos(2.0 * t), 0.2 + 0.1 * t,
                   0.4 * np.sin(3.0 * t)], axis=1).astype(gid.scalar_dtype)
    B = ConnectionCoefficients((1.1, 0.7, 1.3))
    family = integrate_riccati(gid, B, xi, starts, cfg)
    assert family.x.shape == (t.size, 4)
    for column, x0 in zip(family.x.T, starts):
        assert np.array_equal(column, integrate_riccati(gid, B, xi, x0,
                                                        cfg).x)


def test_driven_line_family_reports_earliest_escape():
    # field x^2: x(t) = x0 / (1 - x0 t) has its pole at t = 1 / x0, so the
    # start 2.0 escapes near 0.5, before the first-listed 1.25 near 0.8;
    # 0.5 and -1.0 stay finite over the horizon
    cfg = IntegratorConfig("rk4", 1e-3, 1.0)
    xi = np.tile([0.0, -1.0, 0.0], (cfg.n_steps + 1, 1))

    def escape(x0):
        with pytest.raises(DivergenceError) as info:
            integrate_riccati(GroupId.SL2R, B_ONE, xi, x0, cfg)
        return info.value.escape_time, info.value.last_index

    family = escape([1.25, 0.5, 2.0, -1.0])
    assert family == escape(2.0)
    assert family[0] == pytest.approx(0.5, abs=2e-3)
    first_listed = escape(1.25)
    assert first_listed[0] == pytest.approx(0.8, abs=2e-3)
    assert family[0] != first_listed[0]
    assert family[1] != first_listed[1]


def _spy_starts(monkeypatch):
    """Record the scalar types of every start that dynamics._march gets."""
    starts = []

    def spy(advance, y0, *args, **kwargs):
        starts.append({type(v) for v in y0})
        return _march(advance, y0, *args, **kwargs)
    monkeypatch.setattr("lsb_lab.dynamics._march", spy)
    return starts


def _complex_line_marches(group, B, J, x0, p0, starts, cfg):
    """The line extremal from (x0, p0) and the family driven by its
    controls, both marched on complex scalars whatever the start, through
    the same step functions as the package."""
    control, field = _line_loop(group, B, J)
    ys = _march(_line_step(cfg.method, field, cfg.step),
                [complex(x0), complex(p0)], cfg.times(), "{t}{last}")
    xs, ps = np.array(ys, dtype=object).T
    xi = np.stack(control(xs, ps), axis=-1).astype(np.complex128)
    polys = xi @ line_generator_polynomials(group, B)
    step = _riccati_step(cfg.method, polys.tolist(),
                         (0.5 * (polys[:-1] + polys[1:])).tolist(), cfg.step)
    family = _march(step, [complex(v) for v in starts], cfg.times(), "{t}")
    return (xs.astype(np.complex128), ps.astype(np.complex128), xi,
            np.array(family, dtype=np.complex128))


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("group", [GroupId.SU2, GroupId.SO21])
def test_real_line_start_marches_like_the_complex_march(monkeypatch, method,
                                                        group):
    """On su2 and so21 a real (x0, p0) marches the line extremal on floats,
    and so does the four-member family its controls drive, whose
    coefficient rows are then real.  The stored samples keep the complex
    dtype and equal the complex marches' bit for bit.  Inputs are drawn
    from the ranges of the benchmark's riccati ops."""
    rng = np.random.default_rng(23)
    cfg = IntegratorConfig(method, 1e-3, 0.5)
    starts = _spy_starts(monkeypatch)
    for _ in range(3):
        inertia = rng.uniform(1.0, 2.0)
        J = inertia_diagonal(group, inertia, inertia, rng.uniform(1.0, 3.0))
        B = ConnectionCoefficients(rng.uniform(0.6, 1.4, size=3))
        x0 = float(rng.uniform(-0.4, 0.4))
        p0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.4))
        members = [x0 + d for d in (0.0, 0.4, -0.4, 0.9)]
        ext = integrate_extremal(moebius_line(group), B, J, x0, p0, cfg)
        fam = integrate_riccati(group, B, ext.xi, members, cfg)
        marched = (ext.x, ext.p, ext.xi, fam.x)
        for got, want in zip(marched, _complex_line_marches(
                group, B, J, x0, p0, members, cfg)):
            assert got.dtype == np.complex128
            assert got.tobytes() == want.tobytes()
    # both of the package's marches started on floats at every draw
    assert starts == [{float}, {float}] * 3


# sha256 of x, p and xi (in that order) of the line extremal at h = 1e-2
# over 1 with B = (1.1, 0.7, 1.3) and I = (1.4, 1.4, 2.2): the complex
# march's bytes, pinned so that the real-start rule cannot move them
_COMPLEX_START_DIGESTS = {
    (GroupId.SU2, 0.3 + 0.2j, -0.25):
        "03a0f13bd6747d415e9bad7a387778eda183e1f7fff02a0033c312d4944a0163",
    (GroupId.SU2, complex(0.3, -0.0), -0.25):
        "4e38c254f7c3314b6282cbad5210e0bc70632dde1838c1ced9ff298dd9317a13",
    (GroupId.SU2, -0.0, 0.25):
        "6ecd39ba05f3c948db1f01ec0e0c70e8471f07ae4c326cf703f5108505e3c31b",
    (GroupId.SO21, 0.3 + 0.2j, -0.25):
        "9dae15a0d7c4f238722cafae8a8cf44b24b6aec0eb017424b1b9a0cdf432c859",
    (GroupId.SO21, complex(0.3, -0.0), -0.25):
        "3050f10ff6533a72e7dec7225a801ad0ca8d6cf7b1712a8a7d0a978805c7ba80",
    (GroupId.SO21, -0.0, 0.25):
        "7ba755c7a16ef601968137d72d72266f1449523bc4c5d67e8c51dafae7d7b753",
}


@pytest.mark.parametrize("group,x0,p0", list(_COMPLEX_START_DIGESTS),
                         ids=[f"{g}-{kind}" for g in ("su2", "so21")
                              for kind in ("imaginary", "negative-zero-imag",
                                           "negative-zero-real")])
def test_complex_line_start_keeps_the_complex_march(monkeypatch, group, x0,
                                                    p0):
    """A start with a nonzero imaginary part or a negative-zero part marches
    the extremal and its family on complex scalars, with the bytes the
    complex march has always written."""
    cfg = IntegratorConfig("rk4", 1e-2, 1.0)
    B = ConnectionCoefficients((1.1, 0.7, 1.3))
    J = inertia_diagonal(group, 1.4, 1.4, 2.2)
    # x0 itself, since x0 + 0.0 is +0.0 where x0 holds a negative zero
    members = [x0] + [x0 + d for d in (0.4, -0.4, 0.9)]
    starts = _spy_starts(monkeypatch)
    ext = integrate_extremal(moebius_line(group), B, J, x0, p0, cfg)
    fam = integrate_riccati(group, B, ext.xi, members, cfg)
    assert starts == [{complex}, {complex}]
    digest = hashlib.sha256(ext.x.tobytes() + ext.p.tobytes()
                            + ext.xi.tobytes()).hexdigest()
    assert digest == _COMPLEX_START_DIGESTS[group, x0, p0]
    for got, want in zip((ext.x, ext.p, ext.xi, fam.x), _complex_line_marches(
            group, B, J, x0, p0, members, cfg)):
        assert got.tobytes() == want.tobytes()


def test_feedback_solve_pinned_values():
    xi = feedback_solve(GroupId.SL2R, B_ONE, I_SYM, 0.5, -1.0)
    npt.assert_allclose(xi.coeffs, [-1.0, 0.25, -0.5], rtol=1e-15)
    with pytest.raises(DomainError):
        feedback_solve(GroupId.SL2R, B_ONE, I_SYM, 0.5 + 0.1j, 1.0)


def test_feedback_matches_stationarity_relations():
    # xi_+ = B+ p / I+, xi_- = -B- p x^2 / I-, xi_0 = 2 B0 p x / I0
    rng = np.random.default_rng(43)
    bp, bm, b0 = 1.1, 0.7, 1.3
    B = ConnectionCoefficients(np.array([bp, bm, b0]))
    for _ in range(10):
        x, p = rng.uniform(-2, 2), rng.uniform(-2, 2)
        ip, im, i0 = rng.uniform(0.5, 3.0, 3)
        xi = feedback_solve(GroupId.SL2R, B,
                            inertia_diagonal(GroupId.SL2R, ip, im, i0), x, p)
        npt.assert_allclose(
            xi.coeffs,
            [bp * p / ip, -bm * p * x * x / im, 2.0 * b0 * p * x / i0],
            rtol=1e-13)


def test_closed_loop_rhs_is_the_substituted_field():
    rng = np.random.default_rng(47)
    from lsb_lab import riccati_coefficients
    for _ in range(10):
        x, p = rng.uniform(-2, 2), rng.uniform(-2, 2)
        xi = feedback_solve(GroupId.SL2R, B_ONE, I_LINE, x, p)
        a, b, c = riccati_coefficients(GroupId.SL2R, xi, B_ONE)
        xd, pd = closed_loop_rhs(GroupId.SL2R, B_ONE, I_LINE, x, p)
        assert xd == pytest.approx(a * x * x + b * x + c, rel=1e-14)
        assert pd == pytest.approx(-(2.0 * a * x + b) * p, rel=1e-14)


def test_symmetric_params_derived_quantities():
    pars = SymmetricSolutionParams(I=1.0, I0=2.0, xi0=0.5, xi_plus0=1.0)
    assert pars.alpha == pytest.approx(1.0)
    assert pars.C0 == pytest.approx(0.5)
    assert pars.C_plus == pytest.approx(0.5)
    assert pars.C_minus == 0.0
    with pytest.raises(DomainError):
        SymmetricSolutionParams(I=0.0, I0=2.0)
    with pytest.raises(DomainError):
        SymmetricSolutionParams(I=1.0, I0=2.0, B_zero=0.0)


def test_closed_form_formulas_as_written():
    t = np.linspace(0.0, 1.0, 11)
    pars = SymmetricSolutionParams(I=1.0, I0=2.0, xi0=0.5, xi_plus0=1.0)
    x, p = closed_form_symmetric(GroupId.SL2R, pars, t)
    npt.assert_allclose(x, 0.5 * np.exp(-t), rtol=1e-15)
    npt.assert_allclose(p, np.exp(t), rtol=1e-15)
    assert x.dtype == np.float64  # real data stays real

    pars = SymmetricSolutionParams(I=1.0, I0=2.0, xi0=0.5,
                                   xi_plus0=1.0, xi_minus0=2.0)
    x, p = closed_form_symmetric(GroupId.SU2, pars, 0.3)
    up, dn = np.exp(0.3), np.exp(-0.3)
    assert x == pytest.approx(0.5 / (1.0 * dn + 0.5j * up))
    assert p == pytest.approx(0.5 * up - 1j * dn)

    x, p = closed_form_symmetric(GroupId.SO21, pars, 0.3)
    assert x == pytest.approx(0.5 * up / (1.0 * dn - 0.5j))
    assert p == pytest.approx(-1j * dn - 0.5)

    with pytest.raises(DomainError):
        closed_form_symmetric(GroupId.SO3, pars, 0.0)


def test_closed_form_pole_detection():
    # denominator root placed at t = 0.25 by choice of the minus coefficient
    pars = SymmetricSolutionParams(I=1.0, I0=2.0, xi0=0.5, xi_plus0=1.0,
                                   xi_minus0=-1j * np.exp(0.5))
    with pytest.raises(PoleError) as info:
        closed_form_symmetric(GroupId.SU2, pars, np.linspace(0.0, 1.0, 401))
    assert info.value.location == pytest.approx(0.25, abs=1e-12)
    degenerate = SymmetricSolutionParams(I=1.0, I0=2.0, xi0=0.5)
    with pytest.raises(PoleError):
        closed_form_symmetric(GroupId.SL2R, degenerate, 0.0)


@pytest.mark.xfail(strict=True, reason=(
    "closed_form_symmetric evaluates the formulas as written, and those do "
    "not solve the feedback-substituted loop: the loop forces sign(xdot) = "
    "sign(p) while the formulas decay with p > 0; measured sup gap is O(1)"))
def test_line_extremal_matches_closed_form():
    cfg = IntegratorConfig("rk4", 1e-3, 1.0)
    ext = integrate_extremal(moebius_line(GroupId.SL2R), B_ONE,
                             I_SYM, 0.5, -1.0, cfg)
    xi0 = feedback_solve(GroupId.SL2R, B_ONE, I_SYM, 0.5, -1.0)
    pars = SymmetricSolutionParams(I=1.0, I0=2.0,
                                   xi0=float(np.real(xi0.coeffs[2])),
                                   xi_plus0=complex(xi0.coeffs[0]).real,
                                   xi_minus0=complex(xi0.coeffs[1]).real)
    x_form, p_form = closed_form_symmetric(GroupId.SL2R, pars, cfg.times())
    assert np.abs(ext.x - x_form).max() <= 1e-7
    assert np.abs(ext.p - p_form).max() <= 1e-7


@pytest.mark.xfail(strict=True, reason=(
    "the formula curves do not satisfy the substituted field: their time "
    "derivative disagrees with closed_loop_rhs by O(1) wherever p != 0"))
def test_closed_form_satisfies_substituted_field():
    pars = SymmetricSolutionParams(I=1.0, I0=2.0, xi0=0.5, xi_plus0=1.0)
    t = np.linspace(0.0, 1.0, 101)
    x, p = closed_form_symmetric(GroupId.SL2R, pars, t)
    al = pars.alpha
    worst = 0.0
    for k in range(t.size):
        xd, pd = closed_loop_rhs(
            GroupId.SL2R, pars.connection(),
            inertia_diagonal(GroupId.SL2R, pars.I, pars.I, pars.I0),
            x[k], p[k])
        worst = max(worst, abs(-al * x[k] - xd), abs(al * p[k] - pd))
    assert worst <= 1e-9


def test_quadrature_exact_on_cubics():
    for n in (8, 9, 3):  # even, odd with tail rule, bare tail rule
        t = np.linspace(0.0, 1.0, n + 1)
        vals = t ** 3 - 2.0 * t + 1.0
        assert quadrature(t, vals) == pytest.approx(0.25 - 1.0 + 1.0,
                                                    abs=1e-14)
    with pytest.raises(DomainError):
        quadrature(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


def test_quadrature_fourth_order():
    def err(n):
        t = np.linspace(0.0, 1.0, n + 1)
        return abs(quadrature(t, t ** 6) - 1.0 / 7.0)

    assert err(16) / err(32) > 12.0


def test_objective_value_constant_control():
    J = inertia_diagonal(GroupId.SO3, 1.0, 2.0, 3.0)
    cfg = IntegratorConfig("rk4", 0.1, 2.0)
    n = cfg.n_steps + 1
    tr = Trajectory(group=GroupId.SO3, times=cfg.times(),
                    xi=np.tile([0.5, -0.5, 1.0], (n, 1)))
    # (1/2)(1*0.25 + 2*0.25 + 3*1.0) * horizon
    assert objective_value(J, tr) == pytest.approx(0.5 * 3.75 * 2.0,
                                                   rel=1e-14)
