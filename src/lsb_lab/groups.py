"""Small dense matrix arithmetic for four matrix Lie groups.

Supported groups: SO(3) as real 3x3 rotations, SU(2) and a 2x2 complex
realization of SO(2,1) as unitary-type groups, and SL(2,R) as real 2x2
unimodular matrices.  Each group carries a fixed ordered basis of its Lie
algebra, integer structure constants for that basis, a quadratic trace
pairing, and a diagonal inertia operator acting on coefficient vectors.

Coefficient slot order is (plus, minus, zero) for the three 2x2 groups and
(axis 1, axis 2, axis 3) for SO(3).  SO(3) and SL(2,R) work over real
scalars, SU(2) and SO(2,1) over complex scalars throughout.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ._record import Record
from .errors import DomainError

__all__ = [
    "GroupId",
    "AlgebraElement",
    "GroupElement",
    "InertiaOperator",
    "basis",
    "structure_constants",
    "slot_index",
    "bracket",
    "killing_form",
    "exp_map",
    "exp_matrices",
    "group_identity",
    "constraint_residual",
    "coefficients_of",
    "inertia_diagonal",
    "inertia_anticommutator",
    "inertia_apply",
    "inertia_solve",
    "CONSTRAINT_TOL",
]

CONSTRAINT_TOL = 1e-10


class GroupId(Enum):
    SO3 = "so3"
    SU2 = "su2"
    SL2R = "sl2r"
    SO21 = "so21"

    @property
    def dim(self) -> int:
        """Matrix dimension of the defining representation."""
        return 3 if self is GroupId.SO3 else 2

    @property
    def is_complex(self) -> bool:
        """Whether coefficients and matrices live over complex scalars."""
        return self in (GroupId.SU2, GroupId.SO21)

    @property
    def scalar_dtype(self):
        return np.complex128 if self.is_complex else np.float64


def _so3_basis() -> np.ndarray:
    L1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    L2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    L3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return np.stack([L1, L2, L3])


def _sl2r_basis() -> np.ndarray:
    ep = np.array([[0.0, 1.0], [0.0, 0.0]])
    em = np.array([[0.0, 0.0], [1.0, 0.0]])
    e0 = np.array([[1.0, 0.0], [0.0, -1.0]])
    return np.stack([ep, em, e0])


def _su2_basis() -> np.ndarray:
    ep = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    em = np.array([[0.0, 1j], [1j, 0.0]])
    e0 = np.array([[1j, 0.0], [0.0, -1j]])
    return np.stack([ep, em, e0])


def _so21_basis() -> np.ndarray:
    ep = np.array([[1j, 0.0], [0.0, -1j]])
    em = np.array([[0.0, 1j], [-1j, 0.0]])
    e0 = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
    return np.stack([ep, em, e0])


_BASES = {
    GroupId.SO3: _so3_basis(),
    GroupId.SL2R: _sl2r_basis(),
    GroupId.SU2: _su2_basis(),
    GroupId.SO21: _so21_basis(),
}


def basis(group: GroupId) -> np.ndarray:
    """Ordered algebra basis as a (3, d, d) array. Returns a copy."""
    return _BASES[group].copy()


def _build_structure_constants() -> dict[GroupId, np.ndarray]:
    tables = {}

    def fill(pairs):
        # pairs: {(a, b): {c: value}} for a < b; antisymmetry fills the rest
        C = np.zeros((3, 3, 3), dtype=np.int64)
        for (a, b), comps in pairs.items():
            for c, v in comps.items():
                C[a, b, c] = v
                C[b, a, c] = -v
        return C

    eps = np.zeros((3, 3, 3), dtype=np.int64)
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1
        eps[j, i, k] = -1
    tables[GroupId.SO3] = eps

    tables[GroupId.SL2R] = fill({(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
    tables[GroupId.SU2] = fill({(0, 1): {2: 2}, (0, 2): {1: -2}, (1, 2): {0: 2}})
    tables[GroupId.SO21] = fill({(0, 1): {2: 2}, (0, 2): {1: -2}, (1, 2): {0: -2}})
    return tables


_STRUCTURE = _build_structure_constants()


def structure_constants(group: GroupId) -> np.ndarray:
    """Integer tensor C with [e_a, e_b] = sum_c C[a, b, c] e_c. Returns a copy."""
    return _STRUCTURE[group].copy()


_SLOT_LABELS = {"+": 0, "-": 1, "0": 2, "−": 1}


def slot_index(a) -> int:
    """Normalize a basis slot given as 0/1/2 or one of the labels '+', '-', '0'."""
    if isinstance(a, str):
        try:
            return _SLOT_LABELS[a]
        except KeyError:
            raise DomainError(f"unknown basis label {a!r}") from None
    i = int(a)
    if i not in (0, 1, 2):
        raise DomainError(f"basis index must be 0, 1 or 2, got {a!r}")
    return i


class AlgebraElement(Record):
    """Lie algebra element as a coefficient 3-vector in the group's basis."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: GroupId, coeffs):
        c = np.asarray(coeffs, dtype=group.scalar_dtype)
        if c.shape != (3,):
            raise DomainError(f"coefficients must be a 3-vector, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise DomainError("coefficients must be finite")
        c.flags.writeable = False
        self._set(group=group, coeffs=c)

    def matrix(self) -> np.ndarray:
        """Representing matrix sum_a coeffs[a] * e_a."""
        return np.tensordot(self.coeffs, _BASES[self.group], axes=(0, 0))


def _require_same_group(a: AlgebraElement, b: AlgebraElement) -> GroupId:
    if a.group is not b.group:
        raise DomainError(f"group mismatch: {a.group.value} vs {b.group.value}")
    return a.group


def bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Lie bracket, computed by structure-constant contraction.

    Agrees with the matrix commutator of the representing matrices.
    """
    group = _require_same_group(a, b)
    C = _STRUCTURE[group]
    out = np.einsum("a,b,abc->c", a.coeffs, b.coeffs, C)
    return AlgebraElement(group, out)


_TRANSPOSE_PAIRING = {GroupId.SO3: True, GroupId.SL2R: True,
                      GroupId.SU2: False, GroupId.SO21: False}


def killing_form(a: AlgebraElement, b: AlgebraElement):
    """Quadratic trace pairing 4*Tr(a^T b) (SO3, SL2R) or 4*Tr(a b) (SU2, SO21).

    The transpose variant is positive definite for SO3 and SL2R; the plain
    variant is the one satisfying ad-invariance
    <[a,b],c> + <b,[a,c]> = 0 (asserted for SU2).
    """
    group = _require_same_group(a, b)
    A, B = a.matrix(), b.matrix()
    if _TRANSPOSE_PAIRING[group]:
        val = 4.0 * np.trace(A.T @ B)
    else:
        val = 4.0 * np.trace(A @ B)
    return val if group.is_complex else float(np.real(val))


class GroupElement(Record):
    """Group element as a dense matrix; the defining constraint is checked
    against `constraint_residual` with tolerance CONSTRAINT_TOL."""

    __slots__ = ("group", "matrix")

    def __init__(self, group: GroupId, matrix):
        m = np.asarray(matrix, dtype=group.scalar_dtype)
        d = group.dim
        if m.shape != (d, d):
            raise DomainError(f"matrix must be {d}x{d}, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError("matrix entries must be finite")
        m.flags.writeable = False
        self._set(group=group, matrix=m)

    def is_valid(self, tol: float = CONSTRAINT_TOL) -> bool:
        return constraint_residual(self) <= tol


_SO21_METRIC = np.diag([1.0, -1.0]).astype(complex)


def constraint_residual(g: GroupElement) -> float:
    """Distance from the group's defining constraint.

    SO3: max(|g^T g - 1|, |det g - 1|).  SU2: same with conjugate transpose.
    SL2R: |det g - 1|.  SO21: max(|g^dagger eta g - eta|, |det g - 1|) for the
    invariant form eta = diag(1, -1).
    """
    m = g.matrix
    det_gap = abs(np.linalg.det(m) - 1.0)
    if g.group is GroupId.SL2R:
        return float(det_gap)
    if g.group is GroupId.SO3:
        gram_gap = np.abs(m.T @ m - np.eye(3)).max()
    elif g.group is GroupId.SU2:
        gram_gap = np.abs(m.conj().T @ m - np.eye(2)).max()
    else:
        gram_gap = np.abs(m.conj().T @ _SO21_METRIC @ m - _SO21_METRIC).max()
    return float(max(gram_gap, det_gap))


def group_identity(group: GroupId) -> GroupElement:
    return GroupElement(group, np.eye(group.dim, dtype=group.scalar_dtype))


def _sinc(x: np.ndarray) -> np.ndarray:
    # unnormalised sin(x)/x, exactly 1 at x = 0
    safe = np.where(x == 0, 1.0, x)
    return np.where(x == 0, 1.0, np.sin(safe) / safe)


def exp_matrices(group: GroupId, coeffs) -> np.ndarray:
    """Exponentials of the algebra elements whose coefficients are the rows
    of an (n, 3) array, as an (n, d, d) array of group matrices.

    Closed forms (Moler-Van Loan, "Nineteen dubious ways", 2003).  so3:
    Rodrigues, exp A = I + a A + b A^2 with a = sin t / t and
    b = (1 - cos t) / t^2 for t = |c|, where b is evaluated as
    sinc^2(t/2) / 2 so it does not cancel at small t.  The 2x2 groups: A
    is traceless, so A^2 = s^2 I with s^2 = -det A and
    exp A = cosh(s) I + sinh(s)/s A; both factors are even in s, so the
    branch of the complex square root does not matter.  For
    |s^2| < 1e-8 their Taylor series to first order in s^2 replaces them
    (the next terms are below 5e-18).  Matrices are real on so3 and sl2r.
    """
    c = np.asarray(coeffs)
    A = np.tensordot(c, _BASES[group], axes=(1, 0))
    eye = np.eye(group.dim)
    if group is GroupId.SO3:
        theta = np.sqrt(np.einsum("na,na->n", c, c))
        a = _sinc(theta)[:, None, None]
        b = 0.5 * _sinc(0.5 * theta)[:, None, None] ** 2
        return eye + a * A + b * (A @ A)
    s2 = A[:, 0, 0] * A[:, 0, 0] + A[:, 0, 1] * A[:, 1, 0]
    small = np.abs(s2) < 1e-8
    s = np.sqrt(np.where(small, 1.0, s2).astype(np.complex128))
    ch = np.where(small, 1.0 + s2 / 2.0, np.cosh(s))
    sh = np.where(small, 1.0 + s2 / 6.0, np.sinh(s) / s)
    if not group.is_complex:
        ch, sh = ch.real, sh.real
    return ch[:, None, None] * eye + sh[:, None, None] * A


def exp_map(a: AlgebraElement) -> GroupElement:
    """Exponential of the representing matrix, by the closed forms of
    `exp_matrices`; the result satisfies the group constraint to roundoff."""
    return GroupElement(a.group, exp_matrices(a.group, a.coeffs[None])[0])


def _project_to_span(group: GroupId, m: np.ndarray) -> np.ndarray:
    # Frobenius-orthogonal projection onto the span of the basis:
    # skew part for SO3 (real span of the axis generators), trace removal for
    # the 2x2 groups (complex span of the basis is the traceless matrices).
    if group is GroupId.SO3:
        return (m - m.T) / 2.0
    return m - (np.trace(m) / group.dim) * np.eye(group.dim, dtype=m.dtype)


def coefficients_of(group: GroupId, m, *, project: bool = False,
                    tol: float = CONSTRAINT_TOL) -> np.ndarray:
    """Coefficient 3-vector of a matrix in the group's basis.

    With project=False the matrix must lie in the span of the basis up to
    `tol`, else DomainError.  With project=True the Frobenius-orthogonal
    projection onto the span is decomposed instead and the off-span residual
    is ignored.
    """
    m = np.asarray(m, dtype=group.scalar_dtype)
    d = group.dim
    if m.shape != (d, d):
        raise DomainError(f"matrix must be {d}x{d}, got shape {m.shape}")
    p = _project_to_span(group, m)
    if group is GroupId.SO3:
        coeffs = np.array([p[2, 1], p[0, 2], p[1, 0]])
    elif group is GroupId.SL2R:
        coeffs = np.array([p[0, 1], p[1, 0], p[0, 0]])
    elif group is GroupId.SU2:
        coeffs = np.array([(p[0, 1] - p[1, 0]) / 2.0,
                           (p[0, 1] + p[1, 0]) / 2j,
                           p[0, 0] / 1j])
    else:
        coeffs = np.array([p[0, 0] / 1j,
                           (p[0, 1] - p[1, 0]) / 2j,
                           -(p[0, 1] + p[1, 0]) / 2.0])
    if not project:
        residual = np.abs(m - p).max()
        if residual > tol:
            raise DomainError(
                f"matrix is {residual:.3e} away from the algebra span "
                f"(tolerance {tol:.1e}); pass project=True to project")
    return coeffs.astype(group.scalar_dtype)


class InertiaOperator(Record):
    """Diagonal operator on coefficient vectors: slot a is scaled by the
    finite, nonzero coefficient coeffs[a].

    Build with `inertia_diagonal` or `inertia_anticommutator`.
    """

    __slots__ = ("group", "coeffs")

    def __init__(self, group: GroupId, coeffs):
        c = np.asarray(coeffs, dtype=np.float64)
        if c.shape != (3,):
            raise DomainError(
                f"inertia needs 3 coefficients, got shape {c.shape}")
        if not (np.all(np.isfinite(c)) and c.all()):
            raise DomainError(
                "inertia coefficients must be finite and nonzero")
        c.flags.writeable = False
        self._set(group=group, coeffs=c)


def inertia_diagonal(group: GroupId, i_plus: float, i_minus: float,
                     i_zero: float) -> InertiaOperator:
    """Diagonal inertia with the given slot coefficients."""
    return InertiaOperator(group, [i_plus, i_minus, i_zero])


def inertia_anticommutator(group: GroupId, diag_entries) -> InertiaOperator:
    """The inertia xi -> D xi + xi D for D = diag(diag_entries).

    It is diagonal in each group's basis: on so3, diag(d1, d2, d3) scales the
    axis generators by (d2 + d3, d1 + d3, d1 + d2); on the 2x2 groups,
    diag(d1, d2) scales every basis element by d1 + d2 and adds a central
    multiple of the identity, which leaves the span and commutes with
    everything, so it is dropped.  The sums are Python float sums, so an
    overflow reaches the operator's finiteness check as inf.
    """
    entries = np.asarray(diag_entries, dtype=np.float64)
    if entries.shape != (group.dim,):
        raise DomainError(
            f"anticommutator inertia needs {group.dim} diagonal entries, "
            f"got shape {entries.shape}")
    if group is GroupId.SO3:
        d1, d2, d3 = entries.tolist()
        return InertiaOperator(group, [d2 + d3, d1 + d3, d1 + d2])
    d1, d2 = entries.tolist()
    return InertiaOperator(group, [d1 + d2] * 3)


def inertia_apply(J: InertiaOperator, xi: AlgebraElement) -> AlgebraElement:
    if J.group is not xi.group:
        raise DomainError(f"group mismatch: {J.group.value} vs {xi.group.value}")
    return AlgebraElement(xi.group, J.coeffs * xi.coeffs)


def inertia_solve(J: InertiaOperator, eta: AlgebraElement) -> AlgebraElement:
    if J.group is not eta.group:
        raise DomainError(f"group mismatch: {J.group.value} vs {eta.group.value}")
    return AlgebraElement(eta.group, eta.coeffs / J.coeffs)
