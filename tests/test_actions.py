"""Line generators, fractional-linear action, costs, and the lifted density."""

import numpy as np
import numpy.testing as npt
import pytest

from lsb_lab import (
    AlgebraElement,
    ConnectionCoefficients,
    DomainError,
    GroupId,
    IntegratorConfig,
    PoleError,
    UnsupportedProblemError,
    basis,
    clebsch_lagrangian,
    exp_map,
    generator_field,
    group_identity,
    group_manifold,
    infinitesimal_action,
    inertia_diagonal,
    integrate_riccati,
    line_generator_polynomials,
    moebius_apply,
    moebius_closure_constants,
    moebius_line,
    momentum_map,
    pontryagin_hamiltonian,
    quadratic_cost,
    riccati_coefficients,
    structure_constants,
)

LINE_GROUPS = [GroupId.SL2R, GroupId.SU2, GroupId.SO21]
B_ONE = ConnectionCoefficients.maurer_cartan()


def _random_xi(gid, rng, scale=1.0):
    c = rng.uniform(-scale, scale, 3)
    if gid.is_complex:
        c = c + 1j * rng.uniform(-scale, scale, 3)
    return AlgebraElement(gid, c.astype(gid.scalar_dtype))


def test_generator_polynomial_tables():
    """Coefficient rows (constant, linear, quadratic) per slot, pinned."""
    bp, bm, b0 = 1.1, 0.7, 1.3
    B = ConnectionCoefficients(np.array([bp, bm, b0]))
    rows = line_generator_polynomials(GroupId.SL2R, B)
    npt.assert_allclose(rows[0], [bp, 0.0, 0.0])
    npt.assert_allclose(rows[1], [0.0, 0.0, -bm])
    npt.assert_allclose(rows[2], [0.0, 2.0 * b0, 0.0])
    rows = line_generator_polynomials(GroupId.SU2, B)
    npt.assert_allclose(rows[0], [bp, 0.0, bp])
    npt.assert_allclose(rows[1], [1j * bm, 0.0, -1j * bm])
    npt.assert_allclose(rows[2], [0.0, 2j * b0, 0.0])
    rows = line_generator_polynomials(GroupId.SO21, B)
    npt.assert_allclose(rows[0], [0.0, 2j * bp, 0.0])
    npt.assert_allclose(rows[1], [1j * bm, 0.0, 1j * bm])
    npt.assert_allclose(rows[2], [-b0, 0.0, b0])
    with pytest.raises(UnsupportedProblemError):
        line_generator_polynomials(GroupId.SO3, B)


def test_generator_field_values():
    B = ConnectionCoefficients(np.array([1.1, 0.7, 1.3]))
    line = moebius_line(GroupId.SL2R)
    x = 0.6
    npt.assert_allclose(generator_field(line, B, x),
                        [1.1, -0.7 * x * x, 2.0 * 1.3 * x], rtol=1e-15)
    # manifold generators right-multiply by the basis
    man = group_manifold(GroupId.SO3)
    g = group_identity(GroupId.SO3)
    npt.assert_array_equal(generator_field(man, B, g.matrix),
                           basis(GroupId.SO3))


def test_riccati_coefficients_by_hand():
    bp, bm, b0 = 1.1, 0.7, 1.3
    B = ConnectionCoefficients(np.array([bp, bm, b0]))
    rng = np.random.default_rng(21)

    xi = _random_xi(GroupId.SL2R, rng)
    a, b, c = riccati_coefficients(GroupId.SL2R, xi, B)
    xp, xm, x0 = xi.coeffs
    assert a == pytest.approx(-bm * xm)
    assert b == pytest.approx(2.0 * b0 * x0)
    assert c == pytest.approx(bp * xp)

    xi = _random_xi(GroupId.SU2, rng)
    a, b, c = riccati_coefficients(GroupId.SU2, xi, B)
    xp, xm, x0 = xi.coeffs
    assert a == pytest.approx(bp * xp - 1j * bm * xm)
    assert b == pytest.approx(2j * b0 * x0)
    assert c == pytest.approx(bp * xp + 1j * bm * xm)

    xi = _random_xi(GroupId.SO21, rng)
    a, b, c = riccati_coefficients(GroupId.SO21, xi, B)
    xp, xm, x0 = xi.coeffs
    assert a == pytest.approx(1j * bm * xm + b0 * x0)
    assert b == pytest.approx(2j * bp * xp)
    assert c == pytest.approx(1j * bm * xm - b0 * x0)


def test_riccati_coefficients_linear_in_control():
    rng = np.random.default_rng(5)
    for gid in LINE_GROUPS:
        xi1 = _random_xi(gid, rng)
        xi2 = _random_xi(gid, rng)
        both = AlgebraElement(gid, 2.0 * xi1.coeffs - 3.0 * xi2.coeffs)
        t1 = np.array(riccati_coefficients(gid, xi1, B_ONE))
        t2 = np.array(riccati_coefficients(gid, xi2, B_ONE))
        tb = np.array(riccati_coefficients(gid, both, B_ONE))
        npt.assert_allclose(tb, 2.0 * t1 - 3.0 * t2, atol=1e-14)
    xi = AlgebraElement(GroupId.SO3, np.array([1.0, 0, 0]))
    with pytest.raises(UnsupportedProblemError):
        riccati_coefficients(GroupId.SO3, xi, B_ONE)


def test_infinitesimal_action_sums_generators():
    rng = np.random.default_rng(13)
    for gid in LINE_GROUPS:
        line = moebius_line(gid)
        xi = _random_xi(gid, rng)
        x = 0.4 + (0.3j if gid.is_complex else 0.0)
        total = xi.coeffs @ generator_field(line, B_ONE, x)
        assert infinitesimal_action(line, B_ONE, xi.coeffs, x) \
            == pytest.approx(total)
    # manifold action is the right-translate of the algebra element
    man = group_manifold(GroupId.SO3)
    xi = _random_xi(GroupId.SO3, rng)
    g = exp_map(_random_xi(GroupId.SO3, rng))
    npt.assert_allclose(infinitesimal_action(man, B_ONE, xi.coeffs, g.matrix),
                        g.matrix @ xi.matrix(), atol=1e-14)


def test_momentum_map_contraction():
    """Contracting the slot pairings with coefficients recovers the pairing
    of the costate with the generated tangent."""
    rng = np.random.default_rng(17)
    line = moebius_line(GroupId.SL2R)
    x, p = 0.7, -1.3
    mu = momentum_map(line, B_ONE, x, p)
    for _ in range(5):
        xi = _random_xi(GroupId.SL2R, rng)
        expect = p * infinitesimal_action(line, B_ONE, xi.coeffs, x)
        assert float(mu @ xi.coeffs) == pytest.approx(expect)

    man = group_manifold(GroupId.SO3)
    g = exp_map(_random_xi(GroupId.SO3, rng)).matrix
    pm = rng.standard_normal((3, 3))
    mu = momentum_map(man, B_ONE, g, pm)
    for _ in range(5):
        xi = _random_xi(GroupId.SO3, rng)
        expect = np.trace(pm.T @ infinitesimal_action(man, B_ONE, xi.coeffs, g))
        assert float(mu @ xi.coeffs) == pytest.approx(expect)


def test_moebius_apply_composition():
    rng = np.random.default_rng(23)
    for gid in LINE_GROUPS:
        x = 0.3 + (0.1j if gid.is_complex else 0.0)
        e = group_identity(gid)
        assert moebius_apply(gid, e, x) == pytest.approx(x)
        g1 = exp_map(_random_xi(gid, rng, 0.5))
        g2 = exp_map(_random_xi(gid, rng, 0.5))
        comp = moebius_apply(gid, g1, moebius_apply(gid, g2, x))
        from lsb_lab import GroupElement
        prod = GroupElement(gid, g1.matrix @ g2.matrix)
        assert moebius_apply(gid, prod, x) == pytest.approx(comp)


def test_moebius_apply_pole():
    from lsb_lab import GroupElement
    w = GroupElement(GroupId.SL2R, np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(PoleError):
        moebius_apply(GroupId.SL2R, w, 0.0)
    with pytest.raises(UnsupportedProblemError):
        moebius_apply(GroupId.SO3, group_identity(GroupId.SO3), 0.0)


def test_flow_matches_exponential_action():
    """Integrating the line field of a frozen control reproduces the
    fractional-linear action of the one-parameter subgroup."""
    rng = np.random.default_rng(3)
    cfg = IntegratorConfig("rk4", 1e-3, 0.5)
    n = cfg.n_steps + 1
    for gid in LINE_GROUPS:
        xi = _random_xi(gid, rng, 0.6)
        x0 = 0.3 + (0.2j if gid.is_complex else 0.0)
        traj = integrate_riccati(gid, B_ONE, np.tile(xi.coeffs, (n, 1)),
                                 x0, cfg)
        g = exp_map(AlgebraElement(gid, 0.5 * xi.coeffs))
        assert moebius_apply(gid, g, x0) == pytest.approx(traj.x[-1],
                                                          abs=1e-12)


def _poly_commutator(pa, pb):
    # pa, pb: coefficient rows (c0, c1, c2); returns degree-3 coefficient rows
    # of pa * pb' - pb * pa'
    da = np.array([pa[1], 2.0 * pa[2], 0.0])
    db = np.array([pb[1], 2.0 * pb[2], 0.0])
    return np.convolve(pa, db)[:4] - np.convolve(pb, da)[:4]


def _closure_by_solve(gid, B):
    """Oracle: every pairwise vector-field commutator by exact polynomial
    algebra, expanded in the generator span by a linear solve.  Returns
    (tensor, residual), where residual bounds the out-of-span leftovers
    (the cubic coefficient and the solve's defect)."""
    rows = line_generator_polynomials(gid, B).astype(np.complex128)
    tensor = np.zeros((3, 3, 3), dtype=np.complex128)
    residual = 0.0
    for a in range(3):
        for b in range(3):
            comm = _poly_commutator(rows[a], rows[b])
            coeffs = np.linalg.solve(rows.T, comm[:3])
            tensor[a, b] = coeffs
            residual = max(residual, abs(comm[3]),
                           float(np.abs(coeffs @ rows - comm[:3]).max()))
    return tensor, residual


def test_closure_constants_match_tables_with_flipped_sign():
    """The generator fields close under the vector-field commutator with the
    negated table constants (the action composes contravariantly)."""
    for gid in LINE_GROUPS:
        tensor = moebius_closure_constants(gid, B_ONE)
        assert tensor.dtype == gid.scalar_dtype
        npt.assert_array_equal(tensor, -structure_constants(gid))
        solved, residual = _closure_by_solve(gid, B_ONE)
        assert residual < 1e-12
        npt.assert_allclose(tensor, solved, rtol=0, atol=1e-12)


def test_closure_constants_rescale_with_connection():
    # each generator is its coefficient times a fixed field, so the realized
    # constants pick up B_a B_b / B_c relative to the unit-connection case;
    # the closed form agrees with the polynomial solve on signed B
    rng = np.random.default_rng(29)
    for gid in LINE_GROUPS:
        for _ in range(20):
            diag = rng.choice([-1.0, 1.0], 3) * rng.uniform(0.4, 1.8, 3)
            B = ConnectionCoefficients(diag)
            tensor = moebius_closure_constants(gid, B)
            solved, residual = _closure_by_solve(gid, B)
            assert residual < 1e-12
            npt.assert_allclose(tensor, solved, rtol=0, atol=1e-14)
    bad = ConnectionCoefficients(np.array([1.0, 1.0, 0.0]))
    for gid in LINE_GROUPS:
        with pytest.raises(DomainError, match="degenerate connection"):
            moebius_closure_constants(gid, bad)
    with pytest.raises(UnsupportedProblemError):
        moebius_closure_constants(GroupId.SO3, B_ONE)


def test_quadratic_cost_pairings():
    """Half the coefficient quadratic form, without conjugation: real on
    real coefficients, holomorphic on complex ones."""
    rng = np.random.default_rng(31)
    for gid in (GroupId.SL2R, GroupId.SU2):
        J = inertia_diagonal(gid, 1.0, 2.0, 1.5)
        xi = _random_xi(gid, rng)
        xp, xm, x0 = xi.coeffs
        coord = 0.5 * (1.0 * xp * xp + 2.0 * xm * xm + 1.5 * x0 * x0)
        assert quadratic_cost(J, xi.coeffs) == pytest.approx(coord)


def test_hamiltonian_stationary_at_feedback():
    from lsb_lab import feedback_solve
    line = moebius_line(GroupId.SL2R)
    J = inertia_diagonal(GroupId.SL2R, 1.0, 1.0, 2.0)
    x, p = 0.5, -1.0
    star = feedback_solve(GroupId.SL2R, B_ONE, J, x, p).coeffs
    h0 = pontryagin_hamiltonian(line, B_ONE, J, x, p, star)
    rng = np.random.default_rng(37)
    for _ in range(10):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        eps = 1e-5
        shifted = star + eps * d
        # stationary point: first-order term vanishes, curvature is O(eps^2)
        assert abs(pontryagin_hamiltonian(line, B_ONE, J, x, p, shifted)
                   - h0) < 1e-9


def test_clebsch_density_collapses_on_controlled_curves():
    rng = np.random.default_rng(41)
    line = moebius_line(GroupId.SL2R)
    J = inertia_diagonal(GroupId.SL2R, 1.0, 1.0, 2.0)
    xi = _random_xi(GroupId.SL2R, rng).coeffs
    x, p = 0.4, 0.8
    xdot = infinitesimal_action(line, B_ONE, xi, x)
    lifted = clebsch_lagrangian(line, B_ONE, J, x, p, xdot, xi)
    assert lifted == quadratic_cost(J, xi)
    # with p = 0 the multiplier term drops regardless of the mismatch
    lifted = clebsch_lagrangian(line, B_ONE, J, x, 0.0, xdot + 0.7, xi)
    assert lifted == quadratic_cost(J, xi)
    # a genuine mismatch is billed at the costate rate
    lifted = clebsch_lagrangian(line, B_ONE, J, x, p, xdot + 0.5, xi)
    assert lifted == pytest.approx(quadratic_cost(J, xi) + p * 0.5)


def test_connection_coefficients_validated():
    npt.assert_array_equal(B_ONE.diag, [1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        ConnectionCoefficients(np.array([1.0, 2.0]))


def _layer_calls(space, B, J, x, p, xdot, xi):
    return {
        "generator_field": generator_field(space, B, x),
        "infinitesimal_action": infinitesimal_action(space, B, xi, x),
        "momentum_map": momentum_map(space, B, x, p),
        "quadratic_cost": quadratic_cost(J, xi),
        "pontryagin_hamiltonian": pontryagin_hamiltonian(space, B, J, x, p,
                                                         xi),
        "clebsch_lagrangian": clebsch_lagrangian(space, B, J, x, p, xdot, xi),
    }


@pytest.mark.parametrize("kind,gid", [
    ("line", GroupId.SL2R), ("line", GroupId.SU2), ("line", GroupId.SO21),
    ("manifold", GroupId.SO3), ("manifold", GroupId.SU2)])
def test_layer_stacked_call_equals_per_sample_calls(kind, gid):
    """One call over 5 stacked samples returns the per-sample calls,
    stacked on the leading axis, bit for bit.

    One exception, on the su2/so21 line: the complex control coefficients
    are contracted with the generator table by a BLAS matrix product, gemm
    for a stack and gemv for one sample, whose fused multiply-adds round
    differently.  There the line action and the two quantities built on it
    agree to roundoff of their terms' magnitudes: at most 1.7 eps times
    the terms' sum, measured over 1000 random draws of 5 samples.  The
    checks call the layer on whole trajectories, so the values they report
    are the stacked ones.
    """
    rng = np.random.default_rng(43)
    B = ConnectionCoefficients(np.array([1.1, 0.7, 1.3]))
    J = inertia_diagonal(gid, *rng.uniform(0.5, 2.5, 3))
    n = 5
    xi = np.array([_random_xi(gid, rng).coeffs for _ in range(n)])
    if kind == "line":
        space = moebius_line(gid)
        shape = (n,)
    else:
        space = group_manifold(gid)
        shape = (n, gid.dim, gid.dim)
    x, p, xdot = (rng.standard_normal(shape).astype(gid.scalar_dtype)
                  for _ in range(3))
    if gid.is_complex:
        x, p, xdot = (v + 1j * rng.standard_normal(shape)
                      for v in (x, p, xdot))
    stacked = _layer_calls(space, B, J, x, p, xdot, xi)
    singles = [_layer_calls(space, B, J, *args)
               for args in zip(x, p, xdot, xi)]
    through_gemm = {}
    if kind == "line" and gid.is_complex:
        rows = np.abs(line_generator_polynomials(gid, B))
        terms = ((np.abs(xi) @ rows) * np.abs(x[:, None]) ** np.arange(3)
                 ).sum(axis=1)
        bound = 4.0 * np.finfo(np.float64).eps * terms
        through_gemm = {"infinitesimal_action": bound,
                        "pontryagin_hamiltonian": bound * np.abs(p),
                        "clebsch_lagrangian": bound * np.abs(p)}
    for name, value in stacked.items():
        single = np.array([s[name] for s in singles])
        assert value.shape == single.shape and value.shape[0] == n, name
        if name in through_gemm:
            assert (np.abs(value - single) <= through_gemm[name]).all(), name
        else:
            npt.assert_array_equal(value, single, err_msg=name)
