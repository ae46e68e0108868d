"""State spaces, group actions, and the costate-side machinery.

Two kinds of state space are supported.  A group manifold carries the right
translation action of the group on itself, with infinitesimal generators
x -> x e_a.  A Moebius line carries the fractional-linear action of one of
the 2x2 groups on a scalar coordinate, whose infinitesimal generators are
quadratic polynomials in the coordinate; a control built from them drives a
Riccati equation.

The connection coefficients (B_plus, B_minus, B_zero) rescale the line
generators slot by slot; (1, 1, 1) is the canonical (Maurer-Cartan) case.

The Clebsch-Lin functions (generator_field, infinitesimal_action,
momentum_map, quadratic_cost, pontryagin_hamiltonian, clebsch_lagrangian)
take plain arrays and broadcast over leading sample axes: a control is a
coefficient array of shape (..., 3), a line state or costate has shape
(...), a manifold one (..., d, d).  One point is the case with no leading
axis; a trajectory's stored samples are the case with one.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .errors import DomainError, PoleError, UnsupportedProblemError
from .groups import (
    AlgebraElement,
    GroupElement,
    GroupId,
    InertiaOperator,
    _BASES,
    _STRUCTURE,
)

__all__ = [
    "StateSpace",
    "ConnectionCoefficients",
    "group_manifold",
    "moebius_line",
    "generator_field",
    "infinitesimal_action",
    "riccati_coefficients",
    "line_generator_polynomials",
    "momentum_map",
    "quadratic_cost",
    "pontryagin_hamiltonian",
    "clebsch_lagrangian",
    "moebius_apply",
    "moebius_closure_constants",
]

_LINE_GROUPS = (GroupId.SL2R, GroupId.SU2, GroupId.SO21)


class StateSpace(Record):
    """Either the group itself ("group_manifold") or the scalar line acted on
    by fractional-linear maps ("moebius_line")."""

    __slots__ = ("kind", "group")

    def __init__(self, kind: str, group: GroupId):
        if kind not in ("group_manifold", "moebius_line"):
            raise DomainError(f"unknown state space kind {kind!r}")
        if kind == "moebius_line" and group not in _LINE_GROUPS:
            raise DomainError(
                f"the line action is defined for sl2r, su2, so21, not "
                f"{group.value}")
        self._set(kind=kind, group=group)

    @property
    def is_line(self) -> bool:
        return self.kind == "moebius_line"


def group_manifold(group: GroupId) -> StateSpace:
    return StateSpace("group_manifold", group)


def moebius_line(group: GroupId) -> StateSpace:
    return StateSpace("moebius_line", group)


class ConnectionCoefficients(Record):
    """Diagonal connection coefficients (B_plus, B_minus, B_zero)."""

    __slots__ = ("diag",)

    def __init__(self, diag):
        d = np.asarray(diag, dtype=np.float64)
        if d.shape != (3,):
            raise DomainError(f"connection needs 3 coefficients, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise DomainError("connection coefficients must be finite")
        d.flags.writeable = False
        self._set(diag=d)

    @staticmethod
    def maurer_cartan() -> "ConnectionCoefficients":
        return ConnectionCoefficients(np.ones(3))


def _line_scalar(space: StateSpace, x) -> complex | float:
    if isinstance(x, (GroupElement, np.ndarray)):
        raise DomainError("line states are scalars")
    x = complex(x)
    if space.group is GroupId.SL2R:
        if abs(x.imag) > 1e-12 * max(1.0, abs(x.real)):
            raise DomainError("sl2r line states are real scalars")
        return x.real
    return x


def line_generator_polynomials(group: GroupId,
                               B: ConnectionCoefficients) -> np.ndarray:
    """Coefficient rows (constant, linear, quadratic) of the three line
    generators, as a (3, 3) array over the group's scalars."""
    bp, bm, b0 = B.diag
    if group is GroupId.SL2R:
        rows = [(bp, 0.0, 0.0), (0.0, 0.0, -bm), (0.0, 2.0 * b0, 0.0)]
        return np.array(rows, dtype=np.float64)
    if group is GroupId.SU2:
        rows = [(bp, 0.0, bp), (1j * bm, 0.0, -1j * bm), (0.0, 2j * b0, 0.0)]
    elif group is GroupId.SO21:
        rows = [(0.0, 2j * bp, 0.0), (1j * bm, 0.0, 1j * bm), (-b0, 0.0, b0)]
    else:
        raise UnsupportedProblemError(
            f"no line generators for {group.value}")
    return np.array(rows, dtype=np.complex128)


def generator_field(space: StateSpace, B: ConnectionCoefficients, x):
    """Values of the three infinitesimal generators at the states x.

    The slots sit on a new trailing axis: shape (..., 3) on the line, where
    slot a is row a of `line_generator_polynomials` evaluated at x, and
    (..., 3, d, d) on the group manifold, where it is the matrix x e_a.
    B is read only on the line.
    """
    x = np.asarray(x)
    if space.is_line:
        rows = line_generator_polynomials(space.group, B)
        return (rows[:, 0] + rows[:, 1] * x[..., None]
                + rows[:, 2] * (x * x)[..., None])
    return x[..., None, :, :] @ _BASES[space.group]


def riccati_coefficients(group: GroupId, xi: AlgebraElement,
                         B: ConnectionCoefficients):
    """Coefficients (a, b, c) of the line control field a x^2 + b x + c
    induced by the algebra element xi.  Linear in xi."""
    if group is GroupId.SO3:
        raise UnsupportedProblemError("so3 has no line action here")
    if xi.group is not group:
        raise DomainError(f"group mismatch: {xi.group.value} vs {group.value}")
    rows = line_generator_polynomials(group, B)
    poly = xi.coeffs @ rows  # (constant, linear, quadratic)
    if group.is_complex:
        return poly[2], poly[1], poly[0]
    return float(np.real(poly[2])), float(np.real(poly[1])), float(np.real(poly[0]))


def infinitesimal_action(space: StateSpace, B: ConnectionCoefficients,
                         xi, x):
    """Tangent value at x of the action generated by the coefficients xi.

    c2 x^2 + c1 x + c0 with (c0, c1, c2) = xi @ line_generator_polynomials
    on the line, x xi on the group manifold (B is read only on the line);
    linear in xi.
    """
    xi, x = np.asarray(xi), np.asarray(x)
    if space.is_line:
        c = xi @ line_generator_polynomials(space.group, B)
        return c[..., 2] * x * x + c[..., 1] * x + c[..., 0]
    ximats = np.tensordot(xi, _BASES[space.group], axes=(-1, 0))
    return np.einsum("...ij,...jl->...il", x, ximats)


def _pairing(space: StateSpace, p, v):
    # costate paired with a tangent: p v on the line, Re tr(p^H v) on the
    # group manifold
    if space.is_line:
        return p * v
    return np.einsum("...ij,...ij->...", np.conj(p), v).real


def momentum_map(space: StateSpace, B: ConnectionCoefficients, x, p):
    """Pairings of the costate p with the three generators at x, on a
    trailing axis of length 3; contracting them with coefficients xi gives
    the pairing of p with the infinitesimal action of xi."""
    slot_axis = -1 if space.is_line else -3
    return _pairing(space, np.expand_dims(p, slot_axis),
                    generator_field(space, B, x))


def quadratic_cost(J: InertiaOperator, xi):
    """Running cost (1/2) sum_a I_a xi_a^2 of coefficient vectors on a
    trailing axis; no conjugation, so it is holomorphic in complex
    coefficients."""
    return 0.5 * np.einsum("...a,a,...a->...", xi, J.coeffs, xi)


def pontryagin_hamiltonian(space: StateSpace, B: ConnectionCoefficients,
                           J: InertiaOperator, x, p, xi):
    """<p, control field at x> minus the running cost.

    Stationary in xi exactly at the optimal feedback value.
    """
    drive = _pairing(space, p, infinitesimal_action(space, B, xi, x))
    return drive - quadratic_cost(J, xi)


def clebsch_lagrangian(space: StateSpace, B: ConnectionCoefficients,
                       J: InertiaOperator, x, p, xdot, xi):
    """Running cost plus the costate paired with the control residual
    xdot - (action of xi at x).

    Collapses to the running cost whenever (x, xdot) satisfies the control
    equation, and for p = 0.
    """
    residual = np.asarray(xdot) - infinitesimal_action(space, B, xi, x)
    return quadratic_cost(J, xi) + _pairing(space, p, residual)


def moebius_apply(group: GroupId, g: GroupElement, x):
    """Fractional-linear action (g00 x + g01) / (g10 x + g11) on the line."""
    if group is GroupId.SO3:
        raise UnsupportedProblemError("so3 has no line action here")
    m = g.matrix
    den = m[1, 0] * x + m[1, 1]
    if abs(den) < 1e-300:
        raise PoleError(f"fractional-linear map has a pole at x = {x}")
    val = (m[0, 0] * x + m[0, 1]) / den
    return val if group.is_complex else float(np.real(val))


def moebius_closure_constants(group: GroupId, B: ConnectionCoefficients):
    """Structure constants realized by the line generators, over the
    group's scalars.

    Each generator is its coefficient times the unit-connection field,
    X_a = B_a X_a^0, and the unit fields close with the bracket table
    negated (the line action composes contravariantly), so
    [X_a, X_b] = sum_c tensor[a, b, c] X_c with
    tensor[a, b, c] = -(B_a B_b / B_c) C[a, b, c].  All three generators
    must be independent, which requires every connection coefficient to be
    nonzero.
    """
    if group not in _LINE_GROUPS:
        raise UnsupportedProblemError(
            f"no line generators for {group.value}")
    b = B.diag
    if not b.all():
        raise DomainError("degenerate connection: generators do not span")
    scale = b[:, None, None] * b[None, :, None] / b[None, None, :]
    return (-scale * _STRUCTURE[group]).astype(group.scalar_dtype)
