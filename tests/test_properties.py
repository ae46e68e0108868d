"""Property tests on random inputs: the Lie algebra laws of the bracket and
the one-parameter homomorphism of the closed-form exponentials."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from lsb_lab import AlgebraElement, GroupId, bracket
from lsb_lab.groups import exp_matrices

# a fixed seed per test and no example database: every run draws the same
# examples and stores none
PROPERTY = settings(database=None, derandomize=True, deadline=None,
                    max_examples=25)

GROUPS = pytest.mark.parametrize("group", list(GroupId),
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
