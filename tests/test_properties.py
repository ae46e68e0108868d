"""Property tests on random inputs: the Lie algebra laws of the bracket,
the one-parameter homomorphism of the closed-form exponentials, the
structure constants the line generators realize, and the Hamiltonian as a
first integral of the line extremal."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from lsb_lab import (
    AlgebraElement,
    ConnectionCoefficients,
    GroupId,
    IntegratorConfig,
    bracket,
    check_hamiltonian_conservation,
    exp_matrices,
    inertia_diagonal,
    integrate_extremal,
    line_generator_polynomials,
    moebius_closure_constants,
    moebius_line,
)

# a fixed seed per test and no example database: every run draws the same
# examples and stores none
PROPERTY = settings(database=None, derandomize=True, deadline=None,
                    max_examples=25)

GROUPS = pytest.mark.parametrize("group", list(GroupId),
                                 ids=lambda g: g.value)
LINE_GROUPS = pytest.mark.parametrize(
    "group", [GroupId.SL2R, GroupId.SU2, GroupId.SO21],
    ids=lambda g: g.value)


def _reals(bound):
    return st.floats(-bound, bound, allow_nan=False, allow_infinity=False)


def _coeffs(group, bound):
    """Coefficient 3-vectors, complex where the group takes them."""
    scalar = _reals(bound)
    if group.is_complex:
        scalar = st.complex_numbers(max_magnitude=bound, allow_nan=False,
                                    allow_infinity=False)
    return st.lists(scalar, min_size=3, max_size=3).map(np.array)


def _elements(group, n):
    element = _coeffs(group, 10.0).map(lambda c: AlgebraElement(group, c))
    return st.tuples(*[element] * n)


def _norm(a):
    return float(np.abs(a.coeffs).max())


@GROUPS
def test_bracket_is_antisymmetric(group):
    @PROPERTY
    @given(_elements(group, 2))
    def check(pair):
        a, b = pair
        scale = 1.0 + _norm(a) * _norm(b)
        npt.assert_allclose(bracket(a, b).coeffs, -bracket(b, a).coeffs,
                            rtol=0, atol=1e-14 * scale)
    check()


@GROUPS
def test_bracket_satisfies_jacobi(group):
    @PROPERTY
    @given(_elements(group, 3))
    def check(triple):
        a, b, c = triple
        total = (bracket(a, bracket(b, c)).coeffs
                 + bracket(b, bracket(c, a)).coeffs
                 + bracket(c, bracket(a, b)).coeffs)
        scale = 1.0 + _norm(a) * _norm(b) * _norm(c)
        npt.assert_allclose(total, 0.0, rtol=0, atol=1e-13 * scale)
    check()


@GROUPS
def test_exp_is_a_one_parameter_homomorphism(group):
    """exp((s + t) c) = exp(s c) exp(t c): s c and t c commute."""
    @PROPERTY
    @given(_coeffs(group, 2.0), _reals(2.0), _reals(2.0))
    def check(c, s, t):
        lhs, a, b = exp_matrices(group, np.array([(s + t) * c, s * c, t * c]))
        rhs = a @ b
        scale = max(1.0, float(np.abs(a).max() * np.abs(b).max()))
        npt.assert_allclose(lhs, rhs, rtol=0, atol=1e-13 * scale)
    check()


def _signed(lo, hi):
    return st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(lo, hi)).map(
        lambda sv: sv[0] * sv[1])


@LINE_GROUPS
def test_line_generators_realize_the_scaled_negated_table(group):
    """[X_a, X_b] = sum_c tensor[a, b, c] X_c as polynomials, with the
    commutator [X, Y] = X Y' - Y X' of the line fields
    X_a(x) = rows[a] . (1, x, x^2): the closed-form constants
    -(B_a B_b / B_c) C[a, b, c] close the generators for every signed B."""
    P = np.polynomial.polynomial

    @PROPERTY
    @given(st.tuples(*[_signed(0.3, 2.0)] * 3))
    def check(b):
        B = ConnectionCoefficients(np.array(b))
        rows = line_generator_polynomials(group, B)
        tensor = moebius_closure_constants(group, B)
        for i in range(3):
            for j in range(3):
                comm = P.polysub(P.polymul(rows[i], P.polyder(rows[j])),
                                 P.polymul(rows[j], P.polyder(rows[i])))
                gap = P.polysub(comm, tensor[i, j] @ rows)
                assert np.abs(gap).max() <= 1e-13 * max(
                    1.0, np.abs(comm).max())
    check()


@LINE_GROUPS
def test_line_extremal_conserves_the_hamiltonian(group):
    """H = p^2 Q(x) / 2 is a first integral of the closed loop: rk4 at
    h = 5e-3 over 0.5 keeps its relative drift at roundoff, from starts,
    connections and inertias in the ranges of the benchmark's riccati
    scenarios."""
    cfg = IntegratorConfig("rk4", 5e-3, 0.5)

    @PROPERTY
    @given(st.floats(1.0, 2.0), st.floats(1.0, 3.0),
           st.tuples(*[st.floats(0.6, 1.4)] * 3), st.floats(-0.4, 0.4),
           _signed(0.15, 0.4))
    def check(i, i0, b, x0, p0):
        B = ConnectionCoefficients(b)
        J = inertia_diagonal(group, i, i, i0)
        ext = integrate_extremal(moebius_line(group), B, J, x0, p0, cfg)
        res = check_hamiltonian_conservation(B, J, ext)
        assert res.max_residual <= 1e-9, res.details
    check()
