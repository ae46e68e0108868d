"""Basis conventions, brackets, the trace form, exponentials, inertia."""

import subprocess
import sys

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import sympy as sp

from lsb_lab import (
    CONSTRAINT_TOL,
    AlgebraElement,
    ConnectionCoefficients,
    DomainError,
    GroupElement,
    GroupId,
    InertiaOperator,
    basis,
    bracket,
    constraint_residual,
    exp_map,
    group_identity,
    inertia_anticommutator,
    inertia_diagonal,
    inertia_solve,
    line_generator_polynomials,
    structure_constants,
)
from lsb_lab.groups import exp_matrices

ALL_GROUPS = list(GroupId)
LINE_GROUPS = [GroupId.SL2R, GroupId.SU2, GroupId.SO21]


def test_basis_matrices_pinned():
    """The 2x2 bases are fixed matrices, not conventions up to scaling."""
    e = basis(GroupId.SL2R)
    npt.assert_array_equal(e[0], [[0.0, 1.0], [0.0, 0.0]])
    npt.assert_array_equal(e[1], [[0.0, 0.0], [1.0, 0.0]])
    npt.assert_array_equal(e[2], [[1.0, 0.0], [0.0, -1.0]])

    e = basis(GroupId.SU2)
    npt.assert_array_equal(e[0], [[0, 1], [-1, 0]])
    npt.assert_array_equal(e[1], [[0, 1j], [1j, 0]])
    npt.assert_array_equal(e[2], [[1j, 0], [0, -1j]])

    e = basis(GroupId.SO21)
    npt.assert_array_equal(e[0], [[1j, 0], [0, -1j]])
    npt.assert_array_equal(e[1], [[0, 1j], [-1j, 0]])
    npt.assert_array_equal(e[2], [[0, -1.0], [-1.0, 0]])


def test_so3_basis_antisymmetric_cyclic():
    e = basis(GroupId.SO3)
    assert e.shape == (3, 3, 3)
    for a in range(3):
        npt.assert_array_equal(e[a], -e[a].T)
    # cyclic commutators [e1, e2] = e3 etc.
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        npt.assert_array_equal(e[a] @ e[b] - e[b] @ e[a], e[c])


def test_bracket_matches_matrix_commutator():
    for gid in ALL_GROUPS:
        e = basis(gid)
        for a in range(3):
            for b in range(3):
                ea = AlgebraElement(gid, np.eye(3)[a])
                eb = AlgebraElement(gid, np.eye(3)[b])
                comm = e[a] @ e[b] - e[b] @ e[a]
                npt.assert_array_equal(bracket(ea, eb).matrix(), comm,
                                       err_msg=f"{gid.value} [{a},{b}]")


def test_structure_constant_tables():
    def entry(gid, a, b):
        return structure_constants(gid)[a, b]

    # slot order: plus, minus, zero
    npt.assert_array_equal(entry(GroupId.SL2R, 0, 1), [0, 0, 1])
    npt.assert_array_equal(entry(GroupId.SL2R, 0, 2), [-2, 0, 0])
    npt.assert_array_equal(entry(GroupId.SL2R, 1, 2), [0, 2, 0])
    npt.assert_array_equal(entry(GroupId.SU2, 0, 1), [0, 0, 2])
    npt.assert_array_equal(entry(GroupId.SU2, 0, 2), [0, -2, 0])
    npt.assert_array_equal(entry(GroupId.SU2, 1, 2), [2, 0, 0])
    npt.assert_array_equal(entry(GroupId.SO21, 0, 1), [0, 0, 2])
    npt.assert_array_equal(entry(GroupId.SO21, 0, 2), [0, -2, 0])
    npt.assert_array_equal(entry(GroupId.SO21, 1, 2), [-2, 0, 0])
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        npt.assert_array_equal(entry(GroupId.SO3, a, b), np.eye(3)[c])
    for gid in ALL_GROUPS:
        C = structure_constants(gid)
        assert C.dtype == np.int64
        npt.assert_array_equal(C, -np.swapaxes(C, 0, 1))


@pytest.mark.parametrize("gid", ALL_GROUPS, ids=lambda g: g.value)
def test_tables_derive_exactly_from_basis(gid):
    """Both tables follow from `basis(gid)` alone, in exact arithmetic:
    each commutator [e_a, e_b] split on the basis is C[a, b], and on the
    line groups the t-derivative at 0 of the Moebius map of 1 + t e_a is
    row a of the generator table over B_a."""
    E = [sp.Matrix(m).applyfunc(sp.nsimplify) for m in basis(gid)]
    k = sp.symbols("k0:3")
    C = structure_constants(gid)
    for a in range(3):
        for b in range(3):
            gap = E[a] * E[b] - E[b] * E[a] - sum(
                (kc * e for kc, e in zip(k, E)), sp.zeros(gid.dim))
            split = sp.solve(list(gap), k, dict=True)
            assert len(split) == 1
            assert [split[0][kc] for kc in k] == C[a, b].tolist()
    if gid not in LINE_GROUPS:
        return
    x, t = sp.symbols("x t")
    B = np.array([1.1, -0.7, 1.3])
    rows = line_generator_polynomials(gid, ConnectionCoefficients(B))
    for a in range(3):
        g = sp.eye(2) + t * E[a]
        moved = (g[0, 0] * x + g[0, 1]) / (g[1, 0] * x + g[1, 1])
        X = sp.Poly(sp.diff(moved, t).subs(t, 0), x)
        want = [complex(X.coeff_monomial(x ** n)) for n in range(3)]
        assert want == (rows[a] / B[a]).astype(complex).tolist()


def test_jacobi_identity_exact_integers():
    """Jacobi sums vanish exactly when evaluated over Python ints."""
    for gid in ALL_GROUPS:
        C = structure_constants(gid)
        Ci = [[[int(C[a, b, c]) for c in range(3)] for b in range(3)]
              for a in range(3)]
        npt.assert_array_equal(np.asarray(Ci, dtype=float), C)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    for e in range(3):
                        s = sum(Ci[a][b][d] * Ci[d][c][e]
                                + Ci[b][c][d] * Ci[d][a][e]
                                + Ci[c][a][d] * Ci[d][b][e]
                                for d in range(3))
                        assert s == 0, (gid.value, a, b, c, e)


@pytest.mark.parametrize("gid", ALL_GROUPS, ids=lambda g: g.value)
def test_trace_form_ad_invariant(gid):
    # tr(A B) on the representing matrices is ad-invariant,
    # <[a, b], c> + <b, [a, c]> = 0: the form behind the Casimir
    def trace_form(u, v):
        return np.trace(u.matrix() @ v.matrix())

    def draw():
        c = rng.standard_normal(3)
        if gid.is_complex:
            c = c + 1j * rng.standard_normal(3)
        return AlgebraElement(gid, c)

    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b, c = draw(), draw(), draw()
        lhs = trace_form(bracket(a, b), c) + trace_form(b, bracket(a, c))
        assert abs(lhs) < 1e-12


def test_exp_map_lands_on_group():
    # real coefficient combinations; complex ones leave the real algebra
    rng = np.random.default_rng(7)
    for gid in ALL_GROUPS:
        for _ in range(25):
            c = rng.uniform(-1.5, 1.5, 3).astype(gid.scalar_dtype)
            g = exp_map(AlgebraElement(gid, c))
            assert constraint_residual(g) < 1e-12


def _mp_expm(m):
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix(m.tolist()))
        return np.array([[complex(e[i, j]) for j in range(e.cols)]
                         for i in range(e.rows)])


# Coefficients hitting each branch of the closed forms.  On sl2r, slot
# order (plus, minus, zero): s^2 = c0^2 + c+ c-, so e_plus alone is
# nilpotent (s^2 = 0), e_zero is hyperbolic (s^2 > 0) and e_plus - e_minus
# is a rotation (s^2 < 0); |s^2| = 0.81e-8 and 1.21e-8 sit on the two
# sides of the Taylor switch at 1e-8.
BRANCH_COEFFS = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (-2.5, 0.0, 0.0),
                 (0.0, 0.0, 1.3), (1.2, -1.2, 0.0), (0.0, 0.0, 0.9e-4),
                 (0.0, 0.0, 1.1e-4), (0.9e-4, -0.9e-4, 0.0),
                 (1.1e-4, -1.1e-4, 0.0), (3.0, 2.0, 1.0)]


@pytest.mark.parametrize("gid", ALL_GROUPS, ids=lambda g: g.value)
def test_exp_matrices_against_references(gid):
    """Closed forms against 40-digit mpmath (1e-14) and scipy's Pade
    expm (1e-12, the less accurate side), across scales and branches;
    batch rows equal single exp_map calls."""
    rng = np.random.default_rng(11)
    rows = [np.array(c) for c in BRANCH_COEFFS]
    for scale in (1e-12, 1e-8, 1e-6, 1e-4, 1e-2, 0.3, 1.5, 3.0):
        rows += list(scale * rng.uniform(-1.0, 1.0, (4, 3)))
        if gid.is_complex:
            rows += list(scale * (rng.uniform(-1.0, 1.0, (4, 3))
                                  + 1j * rng.uniform(-1.0, 1.0, (4, 3))))
    coeffs = np.array(rows, dtype=gid.scalar_dtype)
    batch = exp_matrices(gid, coeffs)
    assert batch.shape == (len(coeffs), gid.dim, gid.dim)
    assert batch.dtype == gid.scalar_dtype
    for c, g in zip(coeffs, batch):
        m = AlgebraElement(gid, c).matrix()
        ref = _mp_expm(m)
        scale = np.abs(ref).max()
        assert np.abs(g - ref).max() <= 1e-14 * scale, c
        assert np.abs(g - scipy.linalg.expm(m)).max() <= 1e-12 * scale, c
        npt.assert_array_equal(exp_map(AlgebraElement(gid, c)).matrix, g)


def test_exp_matrices_nilpotent_is_exact():
    c = np.array([[1.0, 0.0, 0.0], [-2.5, 0.0, 0.0]])
    g = exp_matrices(GroupId.SL2R, c)
    npt.assert_array_equal(g, [[[1.0, 1.0], [0.0, 1.0]],
                               [[1.0, -2.5], [0.0, 1.0]]])


def test_runtime_import_loads_no_scipy():
    code = ("import sys, lsb_lab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exp_map_one_parameter_property():
    rng = np.random.default_rng(8)
    for gid in ALL_GROUPS:
        c = rng.uniform(-1.0, 1.0, 3).astype(gid.scalar_dtype)
        g_s = exp_map(AlgebraElement(gid, 0.3 * c))
        g_t = exp_map(AlgebraElement(gid, 0.9 * c))
        g_st = exp_map(AlgebraElement(gid, 1.2 * c))
        npt.assert_allclose(g_s.matrix @ g_t.matrix, g_st.matrix, atol=1e-13)


def test_group_element_constraint_measured():
    for gid in ALL_GROUPS:
        assert constraint_residual(group_identity(gid)) < 1e-14
        assert constraint_residual(group_identity(gid)) <= CONSTRAINT_TOL
    # construction checks shape and finiteness; validity is a measurement
    off = GroupElement(GroupId.SO3, 2.0 * np.eye(3))
    assert not constraint_residual(off) <= CONSTRAINT_TOL
    assert constraint_residual(off) == pytest.approx(7.0)
    with pytest.raises(DomainError):
        GroupElement(GroupId.SO3, np.eye(2))
    with pytest.raises(DomainError):
        GroupElement(GroupId.SL2R, np.full((2, 2), np.nan))


def test_algebra_element_scalar_rules():
    with pytest.raises(DomainError):
        AlgebraElement(GroupId.SO3, np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        AlgebraElement(GroupId.SO3, np.array([np.inf, 0.0, 0.0]))
    # complex coefficients are fine on complex-scalar groups
    a = AlgebraElement(GroupId.SU2, np.array([1j, 0, 0]))
    assert a.coeffs.dtype == np.complex128


def test_inertia_diagonal_apply_solve():
    J = inertia_diagonal(GroupId.SO3, 1.0, 2.0, 3.0)
    xi = AlgebraElement(GroupId.SO3, np.array([0.4, -0.7, 1.1]))
    eta = AlgebraElement(GroupId.SO3, J.coeffs * xi.coeffs)
    npt.assert_allclose(eta.coeffs, [0.4, -1.4, 3.3], rtol=1e-15)
    back = inertia_solve(J, eta)
    npt.assert_allclose(back.coeffs, xi.coeffs, rtol=1e-15)
    with pytest.raises(DomainError):
        inertia_diagonal(GroupId.SO3, 1.0, 0.0, 3.0)


def test_inertia_anticommutator_so3():
    # D ea + ea D acts on the axis basis as the classical pair sums
    d1, d2, d3 = 0.7, 1.3, 2.1
    J = inertia_anticommutator(GroupId.SO3, [d1, d2, d3])
    npt.assert_array_equal(J.coeffs, [d2 + d3, d1 + d3, d1 + d2])


def test_inertia_anticommutator_su2_central():
    # the su2 anticommutator is scalar: (i1 + i2) times the identity
    J = inertia_anticommutator(GroupId.SU2, [0.9, 1.7])
    npt.assert_array_equal(J.coeffs, [0.9 + 1.7] * 3)
    with pytest.raises(DomainError):
        inertia_anticommutator(GroupId.SU2, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("group", list(GroupId))
def test_inertia_anticommutator_is_the_matrix_map(group):
    """The closed formula is the coordinate matrix of xi -> D xi + xi D,
    read column by column from a least-squares split of each image on the
    basis matrices (the Frobenius projection onto their span)."""
    rng = np.random.default_rng(11)
    E = basis(group)
    span = E.reshape(3, -1).T
    for d in rng.uniform(-3.0, 3.0, (200, group.dim)):
        D = np.diag(d)
        ref = [np.linalg.lstsq(span, (D @ e + e @ D).ravel(), rcond=None)[0]
               for e in E]
        npt.assert_allclose(np.diag(inertia_anticommutator(group, d).coeffs),
                            np.column_stack(ref), atol=1e-14)


def test_inertia_coefficients_finite_and_nonzero():
    # the operator's constructor is the one place that checks them; an
    # anticommutator sum that overflows reaches it as inf
    for bad in ([1e308, 1e308], [1.0, -1.0]):
        with pytest.raises(DomainError, match="finite and nonzero"):
            inertia_anticommutator(GroupId.SU2, bad)
    with pytest.raises(DomainError, match="finite and nonzero"):
        inertia_anticommutator(GroupId.SO3, [1e308, 1e308, 1.0])
    for bad in ([np.inf, 1.0, 1.0], [1.0, np.nan, 1.0], [1.0, 1.0, 0.0]):
        with pytest.raises(DomainError, match="finite and nonzero"):
            inertia_diagonal(GroupId.SO3, *bad)
    with pytest.raises(DomainError, match="3 coefficients"):
        InertiaOperator(GroupId.SO3, [1.0, 2.0])


def test_group_mismatch_rejected():
    a = AlgebraElement(GroupId.SO3, np.array([1.0, 0, 0]))
    b = AlgebraElement(GroupId.SL2R, np.array([1.0, 0, 0]))
    with pytest.raises(DomainError):
        bracket(a, b)
    J = inertia_diagonal(GroupId.SL2R, 1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        inertia_solve(J, a)
