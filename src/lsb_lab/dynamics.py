"""Time integration of the reduced, reconstructed, and extremal flows.

Covers: the reduced body-velocity equations and their group reconstruction,
optimal-feedback extremal flows on the line (which drive Riccati equations
and can blow up in finite time), lifted extremal flows on the group manifold,
closed-form symmetric-case solutions, and quadrature of the running cost.

All steppers work on a uniform grid.  Fourth-order Runge-Kutta is the
default; explicit Euler is available for comparison runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .actions import (
    ConnectionCoefficients,
    StateSpace,
    _line_scalar,
    line_generator_polynomials,
    moebius_line,
)
from .errors import DivergenceError, DomainError, PoleError
from .groups import (
    AlgebraElement,
    GroupElement,
    GroupId,
    InertiaOperator,
    _BASES,
    _STRUCTURE,
    bracket,
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
    elements, (n, d, d)), x and p (states and costates, scalar or matrix per
    space), and xdot/pdot (the integrator's own right-hand-side samples,
    suitable as on-grid derivatives).
    """

    group: GroupId
    times: np.ndarray
    xi: np.ndarray | None = None
    g: np.ndarray | None = None
    x: np.ndarray | None = None
    p: np.ndarray | None = None
    xdot: np.ndarray | None = None
    pdot: np.ndarray | None = None

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
        for name in ("xi", "g", "x", "p", "xdot", "pdot"):
            arr = getattr(self, name)
            if arr is not None and len(arr) != t.size:
                raise DomainError(f"{name} has {len(arr)} samples for "
                                  f"{t.size} grid points")

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    def xi_element(self, k: int) -> AlgebraElement:
        return AlgebraElement(self.group, self.xi[k])


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


# The integrators below step states held as lists of Python scalars (or of
# arrays, for the linear flows): at three components, scalar arithmetic costs
# a few microseconds per step where small numpy arrays cost tens.

def _stepper(method: str, f, h: float):
    """One explicit Euler or classical RK4 step of y' = f(y, c).

    The returned step(y, c0, cm, c1) works componentwise on a list y of
    scalars or arrays.  Time enters only through sampled data c: c0 at the
    left end of the step, cm at its midpoint and c1 at its right end
    (autonomous flows leave them None).
    """
    h2, h6 = h / 2.0, h / 6.0

    def step(y, c0=None, cm=None, c1=None):
        k1 = f(y, c0)
        if method == "euler":
            return [u + h * v for u, v in zip(y, k1)]
        k2 = f([u + h2 * v for u, v in zip(y, k1)], cm)
        k3 = f([u + h2 * v for u, v in zip(y, k2)], cm)
        k4 = f([u + h * v for u, v in zip(y, k3)], c1)
        return [u + h6 * (a + 2.0 * b + 2.0 * c + d)
                for u, a, b, c, d in zip(y, k1, k2, k3, k4)]
    return step


def _modulus(v) -> float:
    # largest modulus of a scalar or array; NaN propagates (math.hypot
    # saturates to inf where abs() of a huge complex would raise)
    if isinstance(v, np.ndarray):
        return np.abs(v).max()
    return math.hypot(v.real, v.imag)


def _march(advance, y0: list, times: np.ndarray, message: str,
           extrapolate: bool = False, names: tuple = ()) -> list:
    """The states y0, ..., y_n of y_{k+1} = advance(k, y_k) on the grid.

    Every new state is guarded: the first one holding a value that is not
    finite or whose modulus exceeds DIVERGENCE_CAP stops the march with a
    DivergenceError.  Its message is formatted with the escape time t, the
    last finite sample time last and what, the entry of names for the first
    component that left.  The escape time is t_{k+1}, or with extrapolate the
    reciprocal extrapolation from step k (near a simple pole 1/|y| decays
    linearly).
    """
    ys = [y0]
    for k in range(times.size - 1):
        y = ys[-1]
        nxt = advance(k, y)
        if all(_modulus(v) <= DIVERGENCE_CAP for v in nxt):
            ys.append(nxt)
            continue
        mags = [_modulus(v) for v in nxt]
        what = next((name for name, m in zip(names, mags)
                     if not m <= DIVERGENCE_CAP), None)
        prev_mag = max(_modulus(v) for v in y)
        new_mag = max(mags) if all(map(math.isfinite, mags)) else math.inf
        t_prev, t = times[k], times[k + 1]
        if extrapolate and prev_mag < new_mag < math.inf and prev_mag > 0:
            inv_prev, inv_new = 1.0 / prev_mag, 1.0 / new_mag
            t = t + inv_new / ((inv_prev - inv_new) / (t - t_prev))
        raise DivergenceError(message.format(t=t, last=t_prev, what=what),
                              escape_time=float(t), last_index=k)
    return ys


def _euler_poincare_field(group: GroupId, J: InertiaOperator):
    """euler_poincare_rhs as a closed formula on Python scalars.

    The reduced field is bilinear, rhs_c = sum_ab T[c, a, b] u_a xi_b, with
    u = xi (the starred xi on so21) and T = J^-1 C J built once from the
    structure constants C.
    """
    J3, C = J.matrix3, _STRUCTURE[group]
    starred = group is GroupId.SO21
    if starred:
        CJ = np.einsum("abe,bd->ead", C, J3)  # [xi*, J xi]
    else:
        CJ = np.einsum("ad,abe->edb", J3, C)  # [J xi, xi]
    T = np.linalg.solve(J3, CJ.reshape(3, 9)).tolist()

    def field(y, _):
        v0, v1, v2 = y
        u0, u1, u2 = (-v0.conjugate(), v1.conjugate(), v2.conjugate()) \
            if starred else y
        return [u0 * (a0 * v0 + a1 * v1 + a2 * v2)
                + u1 * (b0 * v0 + b1 * v1 + b2 * v2)
                + u2 * (c0 * v0 + c1 * v1 + c2 * v2)
                for a0, a1, a2, b0, b1, b2, c0, c1, c2 in T]
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
    step = _stepper(cfg.method, _euler_poincare_field(group, J), cfg.step)
    ys = _march(lambda k, y: step(y), xi0.coeffs.tolist(), times,
                "body velocity left the finite range near t = {t:.6g}")
    return Trajectory(group=group, times=times,
                      xi=np.array(ys, dtype=group.scalar_dtype))


def reconstruct_group(group: GroupId, xi_traj: Trajectory,
                      g0: GroupElement, cfg: IntegratorConfig | None = None,
                      convention: str = "body") -> Trajectory:
    """Product-integral reconstruction of the group curve from xi(t).

    Steps by the exponential of the midpoint-interpolated velocity, which
    preserves the group constraint to machine accuracy over long runs:
    convention="body" solves gdot = g xi, convention="spatial" solves
    gdot = xi g.  Returns the trajectory with the g field filled in.
    """
    if xi_traj.xi is None:
        raise DomainError("reconstruction needs body-velocity samples")
    if g0.group is not group or xi_traj.group is not group:
        raise DomainError("group mismatch in reconstruction")
    if convention not in ("body", "spatial"):
        raise DomainError(f"unknown convention {convention!r}")
    if cfg is not None and abs(cfg.step - xi_traj.step) > 1e-12 * xi_traj.step:
        raise DomainError("config step does not match the trajectory grid")
    xi = xi_traj.xi
    mid = 0.5 * (xi[:-1] + xi[1:])
    steps = scipy.linalg.expm(
        xi_traj.step * np.tensordot(mid, _BASES[group], axes=(1, 0)))
    body = convention == "body"
    gs = _march(lambda k, y: [y[0] @ steps[k] if body else steps[k] @ y[0]],
                [g0.matrix], xi_traj.times,
                "group element left the finite range near t = {t:.6g}")
    return replace(xi_traj,
                   g=np.array([g for g, in gs], dtype=group.scalar_dtype))


def _diag_coeffs(I_coeffs) -> np.ndarray:
    if isinstance(I_coeffs, InertiaOperator):
        vals = I_coeffs.diagonal_coefficients()
    else:
        vals = np.asarray(I_coeffs, dtype=np.float64)
        if vals.shape != (3,):
            raise DomainError("inertia coefficients must be a 3-vector")
    if np.any(vals == 0):
        raise DomainError("inertia coefficients must be nonzero")
    return vals


def _line_point(group: GroupId, *values) -> list:
    # line states and costates as Python scalars: float on sl2r, else complex
    space = moebius_line(group)
    return [_line_scalar(space, v) for v in values]


def _line_loop(group: GroupId, B: ConnectionCoefficients, I_coeffs):
    """The optimal feedback and the closed loop on the line, as closed
    formulas on Python scalars.

    With generators X_a(x) and the quartic Q(x) = sum_a X_a(x)^2 / I_a,
    control(x, p) is the feedback xi_a = p X_a(x) / I_a, and field([x, p])
    is the Hamiltonian flow of H = p^2 Q(x) / 2: xdot = p Q(x) and
    pdot = -p^2 Q'(x) / 2.
    """
    I = _diag_coeffs(I_coeffs)
    rows = line_generator_polynomials(group, B)
    q = sum(np.convolve(r, r) / i for r, i in zip(rows, I))
    scalar = complex if group.is_complex else float
    gens = [[scalar(c) for c in r / i] for r, i in zip(rows, I)]
    q0, q1, q2, q3, q4 = map(scalar, q)
    d1, d2, d3 = 2.0 * q2, 3.0 * q3, 4.0 * q4

    def control(x, p):
        return [p * (c0 + x * (c1 + x * c2)) for c0, c1, c2 in gens]

    def field(y, _=None):
        x, p = y
        Q = q0 + x * (q1 + x * (q2 + x * (q3 + x * q4)))
        dQ = q1 + x * (d1 + x * (d2 + x * d3))
        return [p * Q, -0.5 * p * p * dQ]
    return control, field


def feedback_solve(group: GroupId, B: ConnectionCoefficients, I_coeffs,
                   x, p) -> AlgebraElement:
    """Optimal control on the line: xi_a = p X_a(x) / I_a.

    This is the stationary point of the costate Hamiltonian in the control;
    for the diagonal cost the stationarity is slot-by-slot.
    """
    control, _ = _line_loop(group, B, I_coeffs)
    return AlgebraElement(group, control(*_line_point(group, x, p)))


def closed_loop_rhs(group: GroupId, B: ConnectionCoefficients, I_coeffs,
                    x, p):
    """Feedback-substituted extremal field on the line.

    Substituting the optimal feedback into the control coefficients gives
    xdot = a x^2 + b x + c and pdot = -(2 a x + b) p with (a, b, c)
    evaluated at the feedback control.  Evaluated in the equal closed form
    xdot = p Q(x), pdot = -p^2 Q'(x) / 2 with Q(x) = sum_a X_a(x)^2 / I_a.
    """
    _, field = _line_loop(group, B, I_coeffs)
    return tuple(field(_line_point(group, x, p)))


def integrate_extremal(space: StateSpace, B: ConnectionCoefficients,
                       J: InertiaOperator, x0, p0, cfg: IntegratorConfig,
                       xi_traj: Trajectory | None = None) -> Trajectory:
    """Integrate an extremal flow, storing states, costates, controls, and
    the right-hand-side samples.

    On the line the control comes from the optimal feedback, so the system
    is the closed loop (solutions may escape in finite time; the divergence
    error carries an escape-time estimate).  On the group manifold the
    control curve must be supplied and the flow is the linear lift
    xdot = x xi(t), pdot = p xi(t).
    """
    group = space.group
    times = cfg.times()
    n = times.size
    dtype = group.scalar_dtype
    if space.is_line:
        control, field = _line_loop(group, B, J)
        step = _stepper(cfg.method, field, cfg.step)
        ys = _march(lambda k, y: step(y), _line_point(group, x0, p0), times,
                    "extremal escaped near t = {t:.6g} (last finite sample "
                    "at t = {last:.6g})", extrapolate=True)
        xs, ps = np.array(ys, dtype=dtype).T
        xis = np.array([control(x, p) for x, p in ys], dtype=dtype)
        xdot, pdot = np.array([field(y) for y in ys], dtype=dtype).T
        return Trajectory(group=group, times=times, xi=xis, x=xs, p=ps,
                          xdot=xdot, pdot=pdot)

    if xi_traj is None or xi_traj.xi is None:
        raise DomainError("group-manifold extremals need a control trajectory")
    if xi_traj.times.size != n or abs(xi_traj.step - cfg.step) > 1e-12 * cfg.step:
        raise DomainError("control trajectory grid does not match the config")
    if not isinstance(x0, GroupElement) or x0.group is not group:
        raise DomainError("x0 must be a group element of the space's group")
    mats = np.tensordot(xi_traj.xi, _BASES[group], axes=(1, 0))  # (n, d, d)
    # the lift is linear, so every step is a product with the propagator
    # that one Euler or RK4 step applies to the identity
    step = _stepper(cfg.method, lambda y, m: [y[0] @ m], cfg.step)
    eye = np.broadcast_to(np.eye(group.dim, dtype=dtype), mats[1:].shape)
    prop, = step([eye], mats[:-1], 0.5 * (mats[:-1] + mats[1:]), mats[1:])

    ys = _march(lambda k, y: [y[0] @ prop[k], y[1] @ prop[k]],
                [x0.matrix, np.asarray(p0, dtype=dtype)], times,
                "{what} left the finite range near t = {t:.6g}",
                names=("state", "costate"))
    xs = np.array([x for x, _ in ys], dtype=dtype)
    ps = np.array([p for _, p in ys], dtype=dtype)
    xdot = np.einsum("kij,kjl->kil", xs, mats)
    pdot = np.einsum("kij,kjl->kil", ps, mats)
    return Trajectory(group=group, times=times, xi=xi_traj.xi.copy(), x=xs,
                      p=ps, xdot=xdot, pdot=pdot)


def integrate_riccati(group: GroupId, B: ConnectionCoefficients,
                      xi_traj, x0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the line equation driven by a fixed control curve.

    ``xi_traj`` is either a Trajectory carrying control samples or a plain
    (n+1, 3) array of control coefficients on the config grid.  All
    solutions share one time-dependent Riccati equation, so families
    produced by this routine admit the cross-ratio invariant.
    """
    if isinstance(xi_traj, Trajectory):
        if xi_traj.xi is None:
            raise DomainError("control samples required")
        if abs(xi_traj.step - cfg.step) > 1e-12 * cfg.step:
            raise DomainError("control trajectory grid does not match the config")
        xi = xi_traj.xi
    else:
        xi = np.asarray(xi_traj)
    times = cfg.times()
    n = times.size
    if xi.shape != (n, 3):
        raise DomainError("control samples do not match the config grid")
    polys = xi @ line_generator_polynomials(group, B)  # rows (c0, c1, c2)
    ends = polys.tolist()
    mids = (0.5 * (polys[:-1] + polys[1:])).tolist()

    def field(y, c):
        x, = y
        return [c[0] + c[1] * x + c[2] * x * x]

    step = _stepper(cfg.method, field, cfg.step)
    ys = _march(lambda k, y: step(y, ends[k], mids[k], ends[k + 1]),
                _line_point(group, x0), times,
                "line solution escaped near t = {t:.6g}", extrapolate=True)
    xs = np.array([x for x, in ys], dtype=group.scalar_dtype)
    xdot = polys[:, 0] + polys[:, 1] * xs + polys[:, 2] * xs * xs
    return Trajectory(group=group, times=times, xi=np.array(xi, copy=True),
                      x=xs, xdot=xdot)


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
        bad = np.atleast_1d(np.abs(den) <= 1e-12 * max(scale, 1e-300))
        if np.any(bad):
            tt = np.broadcast_to(np.atleast_1d(t), bad.shape)
            loc = float(tt[int(np.argmax(bad))])
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


def objective_value(J, xi_traj: Trajectory, cfg: IntegratorConfig | None = None,
                    pairing: str = "coordinate"):
    """Integral of the running cost (1/2)<xi, J xi> along the trajectory."""
    from .actions import quadratic_cost
    if xi_traj.xi is None:
        raise DomainError("objective needs control samples")
    if cfg is not None and abs(cfg.step - xi_traj.step) > 1e-12 * xi_traj.step:
        raise DomainError("config step does not match the trajectory grid")
    group = xi_traj.group
    if isinstance(J, InertiaOperator):
        op = J
    else:
        vals = _diag_coeffs(J)
        op = InertiaOperator(group, np.diag(vals))
    costs = np.array([
        quadratic_cost(op, AlgebraElement(group, c), pairing=pairing)
        for c in xi_traj.xi])
    return quadrature(xi_traj.times, costs)
