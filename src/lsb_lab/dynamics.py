"""Time integration of the reduced, reconstructed, and extremal flows.

Covers: the reduced body-velocity equations and their group reconstruction,
optimal-feedback extremal flows on the line (which drive Riccati equations
and can blow up in finite time), lifted extremals on the group manifold
(the reconstructed group curve carried to their start point, since the lift
x' = x xi solves the reconstruction's own linear equation), closed-form
symmetric-case solutions, and quadrature of the running cost.

All steppers work on a uniform grid.  Fourth-order Runge-Kutta is the
default; explicit Euler is available for comparison runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .actions import (
    ConnectionCoefficients,
    StateSpace,
    _line_scalar,
    line_generator_polynomials,
    moebius_line,
    quadratic_cost,
)
from .errors import DivergenceError, DomainError, PoleError
from .groups import (
    AlgebraElement,
    GroupElement,
    GroupId,
    InertiaOperator,
    _STRUCTURE,
    bracket,
    exp_matrices,
    inertia_apply,
    inertia_solve,
)

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "SymmetricSolutionParams",
    "euler_poincare_rhs",
    "integrate_euler_poincare",
    "reconstruct_group",
    "feedback_solve",
    "closed_loop_rhs",
    "integrate_extremal",
    "lift_extremal",
    "integrate_riccati",
    "closed_form_symmetric",
    "objective_value",
    "quadrature",
    "DIVERGENCE_CAP",
    "MAX_STEPS",
    "METHODS",
]

DIVERGENCE_CAP = 1e8
# every integrator stores all samples, several arrays of them per run
MAX_STEPS = 10**6
# the integrator names a config accepts
METHODS = ("rk4", "euler")


@dataclass(frozen=True)
class IntegratorConfig:
    """Uniform-grid integrator settings.

    The horizon must be an integer number of steps (to one part in 1e9),
    at most MAX_STEPS of them.
    """

    method: str = "rk4"
    step: float = 1e-3
    horizon: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise DomainError(f"unknown method {self.method!r}")
        if not (self.step > 0 and np.isfinite(self.step)):
            raise DomainError("step must be positive and finite")
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise DomainError("horizon must be positive and finite")
        if self.step > self.horizon * (1 + 1e-12):
            raise DomainError("step must not exceed horizon")
        ratio = self.horizon / self.step
        if ratio > MAX_STEPS * (1 + 1e-9):
            raise DomainError(
                f"horizon/step = {ratio:.6g} exceeds the limit of "
                f"{MAX_STEPS} steps")
        if abs(ratio - round(ratio)) > 1e-9:
            raise DomainError(
                f"horizon/step = {ratio!r} is not an integer sample count")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.step


@dataclass(frozen=True)
class Trajectory:
    """Struct-of-arrays trajectory on a uniform time grid.

    Optional fields: xi (body velocity coefficients, shape (n, 3)), g (group
    elements, (n, d, d)), and x and p (states and costates, scalar or matrix
    per space).  A trajectory holds only what was integrated or transported;
    the control field on its samples is evaluated where it is measured
    (verify).
    """

    group: GroupId
    times: np.ndarray
    xi: np.ndarray | None = None
    g: np.ndarray | None = None
    x: np.ndarray | None = None
    p: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        if t.ndim != 1 or t.size < 2:
            raise DomainError("times must hold at least two samples")
        dt = np.diff(t)
        if not np.all(dt > 0):
            raise DomainError("times must be strictly increasing")
        if np.abs(dt - dt[0]).max() > 1e-9 * max(dt[0], 1.0):
            raise DomainError("times must be uniform")
        object.__setattr__(self, "times", t)
        for name in ("xi", "g", "x", "p"):
            arr = getattr(self, name)
            if arr is not None and len(arr) != t.size:
                raise DomainError(f"{name} has {len(arr)} samples for "
                                  f"{t.size} grid points")

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True)
class SymmetricSolutionParams:
    """Parameters of the equal-transverse-inertia special case.

    Derived quantities: the exponent alpha = 2 xi0 (I0 - I) / I and the
    solution constants C0 = I0 xi0 / (2 B0), C+ = I xi_plus0 / (2 B+),
    C- = I xi_minus0 / (2 B-).
    """

    I: float
    I0: float
    B_plus: float = 1.0
    B_minus: float = 1.0
    B_zero: float = 1.0
    xi0: float = 0.0
    xi_plus0: complex = 0.0
    xi_minus0: complex = 0.0

    def __post_init__(self):
        if self.I == 0:
            raise DomainError("transverse inertia I must be nonzero")
        if self.B_plus * self.B_minus * self.B_zero == 0:
            raise DomainError("all connection coefficients must be nonzero")

    @property
    def alpha(self) -> float:
        return 2.0 * self.xi0 * (self.I0 - self.I) / self.I

    @property
    def C0(self) -> float:
        return self.I0 * self.xi0 / (2.0 * self.B_zero)

    @property
    def C_plus(self) -> complex:
        return self.I * self.xi_plus0 / (2.0 * self.B_plus)

    @property
    def C_minus(self) -> complex:
        return self.I * self.xi_minus0 / (2.0 * self.B_minus)

    def connection(self) -> ConnectionCoefficients:
        return ConnectionCoefficients(
            np.array([self.B_plus, self.B_minus, self.B_zero]))


def _star_coeffs(c: np.ndarray) -> np.ndarray:
    # adjoint with respect to the ambient Hermitian form, at coefficient level
    return np.array([-np.conj(c[0]), np.conj(c[1]), np.conj(c[2])])


def euler_poincare_rhs(group: GroupId, J: InertiaOperator,
                       xi: AlgebraElement) -> AlgebraElement:
    """Body-velocity derivative of the reduced free motion.

    For so3, su2, sl2r this is J^-1 [J xi, xi].  The so21 variant brackets the
    starred velocity with J xi (star = conjugate transpose, which at the
    coefficient level maps (c+, c-, c0) to (-conj c+, conj c-, conj c0)).
    """
    if J.group is not group or xi.group is not group:
        raise DomainError("group mismatch in reduced dynamics")
    Jxi = inertia_apply(J, xi)
    if group is GroupId.SO21:
        starred = AlgebraElement(group, _star_coeffs(xi.coeffs))
        rhs = bracket(starred, Jxi)
    else:
        rhs = bracket(Jxi, xi)
    return inertia_solve(J, rhs)


# Each flow has its own step, an advance(k, y) for _march with an explicit
# Euler and a classical RK4 branch.  A step unpacks the state into local
# Python scalars and hands them to a field that takes the scalars as
# arguments, so a stage builds no list and runs no loop: at two or three
# components, scalar arithmetic costs a few microseconds per step where
# small numpy arrays or per-stage lists cost tens.  The scalars are complex
# only where the state is: the line on sl2r and a real start of the
# reduced flow march on floats (integrate_euler_poincare says why that is
# exact).  The reduced field is the six-product Euler form for a diagonal
# inertia on so3/su2 and the dense 27-term form otherwise
# (_euler_poincare_field).

def _euler_poincare_step(method: str, f, h: float):
    # xi' = f(xi_0, xi_1, xi_2), autonomous
    h2, h6 = h / 2.0, h / 6.0
    if method == "euler":
        def step(k, y):
            v0, v1, v2 = y
            a0, a1, a2 = f(v0, v1, v2)
            return v0 + h * a0, v1 + h * a1, v2 + h * a2
        return step

    def step(k, y):
        v0, v1, v2 = y
        a0, a1, a2 = f(v0, v1, v2)
        b0, b1, b2 = f(v0 + h2 * a0, v1 + h2 * a1, v2 + h2 * a2)
        c0, c1, c2 = f(v0 + h2 * b0, v1 + h2 * b1, v2 + h2 * b2)
        d0, d1, d2 = f(v0 + h * c0, v1 + h * c1, v2 + h * c2)
        return (v0 + h6 * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
                v1 + h6 * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
                v2 + h6 * (a2 + 2.0 * b2 + 2.0 * c2 + d2))
    return step


def _line_step(method: str, f, h: float):
    # (x, p)' = f(x, p), autonomous
    h2, h6 = h / 2.0, h / 6.0
    if method == "euler":
        def step(k, y):
            x, p = y
            ax, ap = f(x, p)
            return x + h * ax, p + h * ap
        return step

    def step(k, y):
        x, p = y
        ax, ap = f(x, p)
        bx, bp = f(x + h2 * ax, p + h2 * ap)
        cx, cp = f(x + h2 * bx, p + h2 * bp)
        dx, dp = f(x + h * cx, p + h * cp)
        return (x + h6 * (ax + 2.0 * bx + 2.0 * cx + dx),
                p + h6 * (ap + 2.0 * bp + 2.0 * cp + dp))
    return step


def _riccati_step(method: str, ends: list, mids: list, h: float):
    """Each member x of the family state steps x' = c0 + c1 x + c2 x^2 on
    its own, through all its stages in turn.  The coefficients (c0, c1, c2)
    are sampled: ends[k] at the left end of step k, mids[k] at its midpoint
    and ends[k + 1] at its right end."""
    h2, h6 = h / 2.0, h / 6.0
    if method == "euler":
        def step(k, y):
            a0, a1, a2 = ends[k]
            return [x + h * (a0 + a1 * x + a2 * x * x) for x in y]
        return step

    def step(k, y):
        a0, a1, a2 = ends[k]
        m0, m1, m2 = mids[k]
        b0, b1, b2 = ends[k + 1]
        out = []
        for x in y:
            s1 = a0 + a1 * x + a2 * x * x
            z = x + h2 * s1
            s2 = m0 + m1 * z + m2 * z * z
            z = x + h2 * s2
            s3 = m0 + m1 * z + m2 * z * z
            z = x + h * s3
            s4 = b0 + b1 * z + b2 * z * z
            out.append(x + h6 * (s1 + 2.0 * s2 + 2.0 * s3 + s4))
        return out
    return step


def _modulus(v) -> float:
    # modulus of a scalar; NaN propagates (math.hypot saturates to inf where
    # abs() of a huge complex would raise)
    return math.hypot(v.real, v.imag)


def _march(advance, y0, times: np.ndarray, message: str,
           extrapolate: bool = False) -> list:
    """The states y0, ..., y_n of y_{k+1} = advance(k, y_k) on the grid.

    A state is a sequence of Python scalars, and every new one is guarded
    component by component: abs(v) <= DIVERGENCE_CAP, with an OverflowError
    (abs() of a complex whose modulus is beyond float range) counted as out
    of range and a NaN failing the comparison.  Complex abs() is hypot, so
    the guard is |v| <= DIVERGENCE_CAP.  The first state that fails stops
    the march with a DivergenceError that carries the finite states y0, ...,
    y_k.  Its message is formatted with the escape time t and the last
    finite sample time last.  The escape time is t_{k+1}, or with
    extrapolate the reciprocal extrapolation from step k (near a simple pole
    1/|y| decays linearly).
    """
    ys = [y0]
    for k in range(times.size - 1):
        y = ys[-1]
        nxt = advance(k, y)
        try:
            for v in nxt:
                if not abs(v) <= DIVERGENCE_CAP:
                    break
            else:
                ys.append(nxt)
                continue
        except OverflowError:
            pass
        mags = [_modulus(v) for v in nxt]
        prev_mag = max(_modulus(v) for v in y)
        new_mag = max(mags) if all(map(math.isfinite, mags)) else math.inf
        t_prev, t = times[k], times[k + 1]
        if extrapolate and prev_mag < new_mag < math.inf and prev_mag > 0:
            inv_prev, inv_new = 1.0 / prev_mag, 1.0 / new_mag
            t = t + inv_new / ((inv_prev - inv_new) / (t - t_prev))
        raise DivergenceError(message.format(t=t, last=t_prev),
                              escape_time=float(t), last_index=k,
                              states=ys)
    return ys


# T's entries (row c, column 3a + b) outside the Euler pattern c, a, b
# distinct: (0,1,2), (0,2,1), (1,0,2), (1,2,0), (2,0,1), (2,1,0)
_NON_EULER = np.ones((3, 9), dtype=bool)
_NON_EULER[[0, 0, 1, 1, 2, 2], [5, 7, 2, 6, 1, 3]] = False


def _euler_poincare_field(group: GroupId, J: InertiaOperator):
    """euler_poincare_rhs as a closed formula on Python scalars.

    The reduced field is bilinear, rhs_c = sum_ab T[c, a, b] u_a xi_b, with
    u = xi (the starred xi on so21) and T = J^-1 C J built once from the
    structure constants C.

    Two closures serve it.  When the field is not starred and T vanishes
    exactly outside the six entries T[c, a, b] with c, a, b distinct, as it
    does for every diagonal J on so3 and su2, the field is the classical
    Euler form: rhs_0 = xi_1 (T[0,1,2] xi_2) + xi_2 (T[0,2,1] xi_1) and its
    cyclic companions.  Those are the dense formula's own nonzero products,
    summed in its order, so both closures agree bit for bit (the dense
    one's exact-zero terms only add signed zeros).  Every other field
    (sl2r, starred so21, a non-diagonal J) takes the dense closure over all
    27 entries.
    """
    J3, C = J.matrix3, _STRUCTURE[group]
    starred = group is GroupId.SO21
    if starred:
        CJ = np.einsum("abe,bd->ead", C, J3)  # [xi*, J xi]
    else:
        CJ = np.einsum("ad,abe->edb", J3, C)  # [J xi, xi]
    T = np.linalg.solve(J3, CJ.reshape(3, 9))
    (a0, a1, a2, a3, a4, a5, a6, a7, a8), \
        (b0, b1, b2, b3, b4, b5, b6, b7, b8), \
        (c0, c1, c2, c3, c4, c5, c6, c7, c8) = T.tolist()

    if not starred and not T[_NON_EULER].any():
        def euler(v0, v1, v2):
            return (v1 * (a5 * v2) + v2 * (a7 * v1),
                    v0 * (b2 * v2) + v2 * (b6 * v0),
                    v0 * (c1 * v1) + v1 * (c3 * v0))
        return euler

    def field(v0, v1, v2):
        u0, u1, u2 = (-v0.conjugate(), v1.conjugate(), v2.conjugate()) \
            if starred else (v0, v1, v2)
        return (u0 * (a0 * v0 + a1 * v1 + a2 * v2)
                + u1 * (a3 * v0 + a4 * v1 + a5 * v2)
                + u2 * (a6 * v0 + a7 * v1 + a8 * v2),
                u0 * (b0 * v0 + b1 * v1 + b2 * v2)
                + u1 * (b3 * v0 + b4 * v1 + b5 * v2)
                + u2 * (b6 * v0 + b7 * v1 + b8 * v2),
                u0 * (c0 * v0 + c1 * v1 + c2 * v2)
                + u1 * (c3 * v0 + c4 * v1 + c5 * v2)
                + u2 * (c6 * v0 + c7 * v1 + c8 * v2))
    return field


def integrate_euler_poincare(group: GroupId, J: InertiaOperator,
                             xi0: AlgebraElement,
                             cfg: IntegratorConfig) -> Trajectory:
    """Integrate the reduced body-velocity flow; returns a xi-only trajectory."""
    if xi0.group is not group:
        raise DomainError("initial velocity group mismatch")
    if J.group is not group:
        raise DomainError("group mismatch in reduced dynamics")
    times = cfg.times()
    step = _euler_poincare_step(cfg.method, _euler_poincare_field(group, J),
                                cfg.step)
    # A real start stays real on every group (T is real, and conjugation
    # fixes a real number), so it marches on floats, at about a third of
    # the cost.  The real parts of the complex march see the same products
    # and sums, so the samples agree bit for bit; only the sign of an exact
    # zero can differ between the two arithmetics, and it reaches a sample
    # only from a negative-zero start, which keeps the complex march.
    coeffs = xi0.coeffs
    parts = np.array([coeffs.real, coeffs.imag])
    if not parts[1].any() and not np.signbit(parts[parts == 0]).any():
        coeffs = coeffs.real
    ys = _march(step, coeffs.tolist(), times,
                "body velocity left the finite range near t = {t:.6g}")
    return Trajectory(group=group, times=times,
                      xi=np.array(ys, dtype=group.scalar_dtype))


def reconstruct_group(group: GroupId, xi_traj: Trajectory,
                      g0: GroupElement) -> Trajectory:
    """Product-integral reconstruction of the group curve gdot = g xi from
    g(0) = g0.

    Steps by the exponential of the midpoint-interpolated velocity, all
    steps' exponentials evaluated at once by the closed forms of
    `groups.exp_matrices` (Rodrigues on so3, cosh/sinh on the 2x2 groups),
    then multiplied in sequence; every factor lies on the group to roundoff,
    so the constraint holds to machine accuracy over long runs.  The whole
    product is guarded once, as _march guards a state: at the first sample
    g_{k+1} holding an entry that is not finite or whose modulus exceeds
    DIVERGENCE_CAP, a DivergenceError reports the escape time t_{k+1} and
    carries g_0, ..., g_k.  Returns the trajectory with the g field filled
    in.
    """
    if xi_traj.xi is None:
        raise DomainError("reconstruction needs body-velocity samples")
    if g0.group is not group or xi_traj.group is not group:
        raise DomainError("group mismatch in reconstruction")
    xi = xi_traj.xi
    mid = 0.5 * (xi[:-1] + xi[1:])
    steps = exp_matrices(group, xi_traj.step * mid)
    gs = np.concatenate([g0.matrix[None], steps])  # g_0, then room for g_k
    # past the first sample out of range the product runs on in inf/NaN;
    # those values are never returned
    with np.errstate(over="ignore", invalid="ignore"):
        for k, step in enumerate(steps):
            np.matmul(gs[k], step, out=gs[k + 1])
        bad = ~(np.abs(gs[1:]) <= DIVERGENCE_CAP).all(axis=(1, 2))
    if bad.any():
        k = int(bad.argmax())
        t = xi_traj.times[k + 1]
        raise DivergenceError(
            f"group element left the finite range near t = {t:.6g}",
            escape_time=float(t), last_index=k, states=list(gs[:k + 1]))
    return replace(xi_traj, g=np.asarray(gs, dtype=group.scalar_dtype))


def _line_point(group: GroupId, *values) -> list:
    # line states and costates as Python scalars: float on sl2r, else complex
    space = moebius_line(group)
    return [_line_scalar(space, v) for v in values]


def _line_loop(group: GroupId, B: ConnectionCoefficients,
               J: InertiaOperator):
    """The optimal feedback and the closed loop on the line, as closed
    formulas on Python scalars or on arrays of points alike.

    With generators X_a(x), the diagonal coefficients I_a of J and the
    quartic Q(x) = sum_a X_a(x)^2 / I_a, control(x, p) is the feedback
    xi_a = p X_a(x) / I_a, and field(x, p) is the Hamiltonian flow of
    H = p^2 Q(x) / 2: xdot = p Q(x) and pdot = -p^2 Q'(x) / 2.
    """
    I = J.diagonal_coefficients()
    rows = line_generator_polynomials(group, B)
    q = sum(np.convolve(r, r) / i for r, i in zip(rows, I))
    scalar = complex if group.is_complex else float
    gens = [[scalar(c) for c in r / i] for r, i in zip(rows, I)]
    q0, q1, q2, q3, q4 = map(scalar, q)
    d1, d2, d3 = 2.0 * q2, 3.0 * q3, 4.0 * q4

    def control(x, p):
        return [p * (c0 + x * (c1 + x * c2)) for c0, c1, c2 in gens]

    def field(x, p):
        Q = q0 + x * (q1 + x * (q2 + x * (q3 + x * q4)))
        dQ = q1 + x * (d1 + x * (d2 + x * d3))
        return p * Q, -0.5 * p * p * dQ
    return control, field


def feedback_solve(group: GroupId, B: ConnectionCoefficients,
                   J: InertiaOperator, x, p) -> AlgebraElement:
    """Optimal control on the line: xi_a = p X_a(x) / I_a.

    This is the stationary point of the costate Hamiltonian in the control;
    for the diagonal cost the stationarity is slot-by-slot.
    """
    control, _ = _line_loop(group, B, J)
    return AlgebraElement(group, control(*_line_point(group, x, p)))


def closed_loop_rhs(group: GroupId, B: ConnectionCoefficients,
                    J: InertiaOperator, x, p):
    """Feedback-substituted extremal field on the line.

    Substituting the optimal feedback into the control coefficients gives
    xdot = a x^2 + b x + c and pdot = -(2 a x + b) p with (a, b, c)
    evaluated at the feedback control.  Evaluated in the equal closed form
    xdot = p Q(x), pdot = -p^2 Q'(x) / 2 with Q(x) = sum_a X_a(x)^2 / I_a.
    """
    _, field = _line_loop(group, B, J)
    return field(*_line_point(group, x, p))


def integrate_extremal(space: StateSpace, B: ConnectionCoefficients,
                       J: InertiaOperator, x0, p0,
                       cfg: IntegratorConfig) -> Trajectory:
    """Integrate the extremal flow on the line, storing states, costates
    and controls.

    The control comes from the optimal feedback, so the system is the
    closed loop (solutions may escape in finite time; the divergence error
    carries an escape-time estimate).  Group-manifold extremals come from
    lift_extremal instead.
    """
    if not space.is_line:
        raise DomainError("group-manifold extremals are the group curve "
                          "carried to (x0, p0): use lift_extremal")
    group = space.group
    times = cfg.times()
    dtype = group.scalar_dtype
    control, field = _line_loop(group, B, J)
    ys = _march(_line_step(cfg.method, field, cfg.step),
                _line_point(group, x0, p0), times,
                "extremal escaped near t = {t:.6g} (last finite sample "
                "at t = {last:.6g})", extrapolate=True)
    # one pass of the feedback over the samples as Python scalars: numpy's
    # complex multiply may fuse a multiply-add, where the scalar feedback
    # (feedback_solve) rounds each product
    xs, ps = np.array(ys, dtype=object).T
    return Trajectory(group=group, times=times,
                      xi=np.stack(control(xs, ps), axis=-1).astype(dtype),
                      x=xs.astype(dtype), p=ps.astype(dtype))


def lift_extremal(curve: Trajectory, x0: GroupElement, p0) -> Trajectory:
    """The lifted extremal xdot = x xi, pdot = p xi on the group manifold.

    The lift solves the same linear equation as the reconstruction
    g' = g xi, so it is the group curve carried to its start point:
    x(t) = x0 g(0)^(-1) g(t) and p(t) = p0 g(0)^(-1) g(t).  curve carries
    the control samples xi and the group curve g (any g(0)); x0 is a group
    element, p0 a matrix.  Returns curve with x and p filled in.
    """
    if curve.g is None or curve.xi is None:
        raise DomainError("the lift needs control and group samples")
    if abs(np.linalg.det(curve.g[0])) < 1e-12:
        raise DomainError("singular group sample at index 0")
    transport = np.linalg.solve(curve.g[0], curve.g)  # g(0)^(-1) g(t)
    dtype = curve.group.scalar_dtype
    xs = np.einsum("ij,kjl->kil", x0.matrix, transport)
    ps = np.einsum("ij,kjl->kil", np.asarray(p0, dtype=dtype), transport)
    return replace(curve, x=xs, p=ps)


def integrate_riccati(group: GroupId, B: ConnectionCoefficients,
                      xi: np.ndarray, x0,
                      cfg: IntegratorConfig) -> Trajectory:
    """Integrate the line equation driven by a fixed control curve.

    ``xi`` is the (n+1, 3) array of control coefficients on the config
    grid.  All solutions share one time-dependent Riccati equation, so a
    family of four starts admits the cross-ratio invariant
    (verify.check_cross_ratio).

    ``x0`` is one start, giving x of shape (n+1,), or a sequence of m
    starts, giving x of shape (n+1, m) with one column per start.  A family
    marches as one state, each member with its own arithmetic, so every
    column equals the march from its start alone.  The family stops at the
    first step where any member leaves the finite range; the divergence
    error reports that earliest escape.
    """
    times = cfg.times()
    n = times.size
    if xi.shape != (n, 3):
        raise DomainError("control samples do not match the config grid")
    polys = xi @ line_generator_polynomials(group, B)  # rows (c0, c1, c2)
    ends = polys.tolist()
    mids = (0.5 * (polys[:-1] + polys[1:])).tolist()
    family = np.ndim(x0) == 1
    ys = _march(_riccati_step(cfg.method, ends, mids, cfg.step),
                _line_point(group, *(x0 if family else [x0])), times,
                "line solution escaped near t = {t:.6g}", extrapolate=True)
    xs = np.array(ys, dtype=group.scalar_dtype)
    return Trajectory(group=group, times=times, xi=np.array(xi, copy=True),
                      x=xs if family else xs[:, 0])


def closed_form_symmetric(group: GroupId, params: SymmetricSolutionParams, t):
    """Symmetric-case solution formulas, evaluated exactly as written.

    sl2r: x = C0/(2 C+) e^{-alpha t},          p = 2 C+ e^{alpha t}
    su2:  x = C0/(C- e^{-alpha t} + i C+ e^{alpha t}),
          p = C+ e^{alpha t} - i C- e^{-alpha t}
    so21: x = C+ e^{alpha t}/(C- e^{-alpha t} - i C0),
          p = -i C- e^{-alpha t} - C0

    Raises a pole error where a denominator vanishes.
    """
    t = np.asarray(t, dtype=np.float64)
    al = params.alpha
    up, dn = np.exp(al * t), np.exp(-al * t)
    C0, Cp, Cm = params.C0, params.C_plus, params.C_minus

    def guard(den, scale):
        # den is a scalar where it does not depend on t
        tol = 1e-12 * max(scale, 1e-300)
        bad, tt = np.broadcast_arrays(np.abs(den) <= tol, t)
        if bad.any():
            loc = float(tt.flat[bad.argmax()])
            raise PoleError(f"denominator vanishes at t = {loc:.6g}",
                            location=loc)

    if group is GroupId.SL2R:
        guard(2.0 * Cp, abs(C0))
        x = C0 / (2.0 * Cp) * dn
        p = 2.0 * Cp * up
        if complex(params.xi_plus0).imag == 0:
            x, p = np.real(x), np.real(p)
        return x, p
    if group is GroupId.SU2:
        den = Cm * dn + 1j * Cp * up
        guard(den, abs(C0))
        return C0 / den, Cp * up - 1j * Cm * dn
    if group is GroupId.SO21:
        den = Cm * dn - 1j * C0
        guard(den, abs(Cp))
        return Cp * up / den, -1j * Cm * dn - C0
    raise DomainError(f"no symmetric solution formulas for {group.value}")


def quadrature(times: np.ndarray, values: np.ndarray):
    """Composite Simpson integral on a uniform grid.

    Uses the 3/8 rule on the final three intervals when the interval count
    is odd.  Fourth-order accurate for smooth integrands.
    """
    n = times.size - 1
    if n < 2:
        raise DomainError("quadrature needs at least 3 samples")
    h = float(times[1] - times[0])
    v = np.asarray(values)

    def simpson(block):
        # block holds an even number of intervals
        return (h / 3.0) * (block[0] + block[-1]
                            + 4.0 * block[1:-1:2].sum()
                            + 2.0 * block[2:-1:2].sum())

    if n % 2 == 0:
        return simpson(v)
    if n == 3:
        return (3.0 * h / 8.0) * (v[0] + 3.0 * v[1] + 3.0 * v[2] + v[3])
    head = simpson(v[:n - 2])
    tail = (3.0 * h / 8.0) * (v[n - 3] + 3.0 * v[n - 2] + 3.0 * v[n - 1] + v[n])
    return head + tail


def objective_value(J: InertiaOperator, xi_traj: Trajectory):
    """Integral of the running cost (1/2) xi^T J xi along the trajectory."""
    if xi_traj.xi is None:
        raise DomainError("objective needs control samples")
    return quadrature(xi_traj.times, quadratic_cost(J, xi_traj.xi))
