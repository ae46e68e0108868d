"""The package's value records: checks and coercions at construction, read
only afterwards, a value repr, and the trajectory's copy with new fields."""

import numpy as np
import numpy.testing as npt
import pytest

from lsb_lab import (
    AlgebraElement,
    CheckResult,
    ConnectionCoefficients,
    DomainError,
    GroupElement,
    GroupId,
    InertiaOperator,
    IntegratorConfig,
    StateSpace,
    SymmetricSolutionParams,
    Trajectory,
    VerificationReport,
)

SU2, SO3 = GroupId.SU2, GroupId.SO3
TIMES = [0.0, 0.5, 1.0]

REJECTED = [
    (lambda: AlgebraElement(SU2, [1.0, 2.0]),
     "coefficients must be a 3-vector, got shape (2,)"),
    (lambda: AlgebraElement(SO3, [1.0, np.nan, 0.0]),
     "coefficients must be finite"),
    (lambda: GroupElement(SU2, np.eye(3)),
     "matrix must be 2x2, got shape (3, 3)"),
    (lambda: GroupElement(SO3, np.full((3, 3), np.inf)),
     "matrix entries must be finite"),
    (lambda: InertiaOperator(SO3, [1.0, 2.0]),
     "inertia needs 3 coefficients, got shape (2,)"),
    (lambda: InertiaOperator(SO3, [1.0, 0.0, 2.0]),
     "inertia coefficients must be finite and nonzero"),
    (lambda: InertiaOperator(SO3, [1.0, np.inf, 2.0]),
     "inertia coefficients must be finite and nonzero"),
    (lambda: StateSpace("torus", SU2), "unknown state space kind 'torus'"),
    (lambda: StateSpace("moebius_line", SO3),
     "the line action is defined for sl2r, su2, so21, not so3"),
    (lambda: ConnectionCoefficients([1.0, 1.0]),
     "connection needs 3 coefficients, got shape (2,)"),
    (lambda: ConnectionCoefficients([1.0, -np.inf, 1.0]),
     "connection coefficients must be finite"),
    (lambda: IntegratorConfig("leapfrog"), "unknown method 'leapfrog'"),
    (lambda: IntegratorConfig("rk4", 0.0, 1.0),
     "step must be positive and finite"),
    (lambda: IntegratorConfig("rk4", 0.1, np.nan),
     "horizon must be positive and finite"),
    (lambda: IntegratorConfig("rk4", 2.0, 1.0),
     "step must not exceed horizon"),
    (lambda: IntegratorConfig("rk4", 1e-7, 1.0),
     "horizon/step = 1e+07 exceeds the limit of 1000000 steps"),
    (lambda: IntegratorConfig("rk4", 0.3, 1.0),
     "horizon/step = 3.3333333333333335 is not an integer sample count"),
    (lambda: Trajectory(SU2, [0.0]), "times must hold at least two samples"),
    (lambda: Trajectory(SU2, [0.0, 1.0, 0.5]),
     "times must be strictly increasing"),
    (lambda: Trajectory(SU2, [0.0, 1.0, 3.0]), "times must be uniform"),
    (lambda: Trajectory(SU2, TIMES, p=np.zeros(2)),
     "p has 2 samples for 3 grid points"),
    (lambda: SymmetricSolutionParams(0.0, 1.0),
     "transverse inertia I must be nonzero"),
    (lambda: SymmetricSolutionParams(1.0, 1.0, B_minus=0.0),
     "all connection coefficients must be nonzero"),
]


@pytest.mark.parametrize("make, message", REJECTED,
                         ids=[m for _, m in REJECTED])
def test_record_rejects_with_message(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


def _records():
    return [
        AlgebraElement(SU2, [1, 2, 3]),
        GroupElement(SU2, np.eye(2)),
        InertiaOperator(SO3, [1, 2, 3]),
        StateSpace("moebius_line", SU2),
        ConnectionCoefficients([1, 2, 3]),
        IntegratorConfig(),
        Trajectory(SU2, TIMES, xi=np.zeros((3, 3))),
        SymmetricSolutionParams(1.0, 2.0),
        CheckResult("energy", 1e-9, 1e-6),
        VerificationReport([CheckResult("energy", 1e-9, 1e-6)]),
    ]


def test_records_coerce_their_fields():
    a, g, J, _, B, *_rest, report = _records()
    assert a.coeffs.dtype == np.complex128 and J.coeffs.dtype == np.float64
    assert g.matrix.dtype == np.complex128 and B.diag.dtype == np.float64
    for arr in (a.coeffs, g.matrix, J.coeffs, B.diag):
        assert not arr.flags.writeable
    assert isinstance(report.checks, tuple)
    assert Trajectory(SU2, [0, 1]).times.dtype == np.float64


@pytest.mark.parametrize("record", _records(),
                         ids=lambda r: type(r).__name__)
def test_records_are_read_only(record):
    name = type(record).__slots__[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is before


def test_repr_shows_field_values():
    assert repr(IntegratorConfig("euler", 0.5, 2.0)) == \
        "IntegratorConfig(method='euler', step=0.5, horizon=2.0)"
    assert repr(StateSpace("moebius_line", SU2)) == \
        "StateSpace(kind='moebius_line', group=<GroupId.SU2: 'su2'>)"
    assert repr(CheckResult("energy", 0.0, 1e-6)) == (
        "CheckResult(name='energy', max_residual=0.0, tolerance=1e-06, "
        "passed=True, details='')")
    assert repr(ConnectionCoefficients([1, 2, 3])) == \
        "ConnectionCoefficients(diag=array([1., 2., 3.]))"
    # values, not identities: equal fields give equal reprs
    for make in (lambda: Trajectory(SU2, TIMES, x=np.arange(3.0)),
                 lambda: SymmetricSolutionParams(1.0, 2.0, xi0=0.3)):
        assert repr(make()) == repr(make())
    assert repr(AlgebraElement(SO3, [1, 2, 3])) != \
        repr(AlgebraElement(SO3, [1, 2, 4]))


def test_trajectory_replace_keeps_the_other_fields():
    xi, x = np.zeros((3, 3)), np.arange(3.0)
    traj = Trajectory(SU2, TIMES, xi=xi, x=x)
    p = np.ones(3)
    copy = traj.replace(p=p, x=None)
    assert copy is not traj and copy.group is SU2
    assert copy.times is traj.times and copy.xi is xi and copy.g is None
    assert copy.x is None and copy.p is p
    assert traj.x is x and traj.p is None  # the original is unchanged
    npt.assert_array_equal(copy.times, TIMES)
    # the copy is checked as a new trajectory is
    with pytest.raises(DomainError, match="g has 2 samples"):
        traj.replace(g=np.zeros((2, 2, 2)))
    with pytest.raises(TypeError):
        traj.replace(control=xi)
