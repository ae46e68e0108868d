"""Time integration of the reduced, reconstructed, and extremal flows.

Covers: the reduced body-velocity equations and their group reconstruction,
optimal-feedback extremal flows on the line (which drive Riccati equations;
they are marched in Clebsch variables, a bilinear flow with no pole whose
readout on the sl2r line blows up in finite time), lifted extremals on the
group manifold (the reconstructed group curve carried to their start point,
since the lift x' = x xi solves the reconstruction's own linear equation),
closed-form symmetric-case solutions, and quadrature of the running cost.

All steppers work on a uniform grid.  Fourth-order Runge-Kutta is the
default; explicit Euler is available for comparison runs.  One generated
step serves both autonomous marches, the reduced flow and the Clebsch
march (_autonomous_step).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .actions import (
    ConnectionCoefficients,
    StateSpace,
    _line_scalar,
    line_generator_polynomials,
    moebius_line,
    quadratic_cost,
)
from ._record import Record
from .errors import DivergenceError, DomainError, PoleError
from .groups import (
    AlgebraElement,
    GroupElement,
    GroupId,
    InertiaOperator,
    _BASES,
    _STRUCTURE,
    exp_matrices,
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


class IntegratorConfig(Record):
    """Uniform-grid integrator settings.

    The horizon must be an integer number of steps (to one part in 1e9),
    at most MAX_STEPS of them.
    """

    __slots__ = ("method", "step", "horizon")

    def __init__(self, method: str = "rk4", step: float = 1e-3,
                 horizon: float = 1.0):
        if method not in METHODS:
            raise DomainError(f"unknown method {method!r}")
        if not (step > 0 and np.isfinite(step)):
            raise DomainError("step must be positive and finite")
        if not (horizon > 0 and np.isfinite(horizon)):
            raise DomainError("horizon must be positive and finite")
        if step > horizon * (1 + 1e-12):
            raise DomainError("step must not exceed horizon")
        ratio = horizon / step
        if ratio > MAX_STEPS * (1 + 1e-9):
            raise DomainError(
                f"horizon/step = {ratio:.6g} exceeds the limit of "
                f"{MAX_STEPS} steps")
        if abs(ratio - round(ratio)) > 1e-9:
            raise DomainError(
                f"horizon/step = {ratio!r} is not an integer sample count")
        self._set(method=method, step=step, horizon=horizon)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.step


class Trajectory(Record):
    """Struct-of-arrays trajectory on a uniform time grid.

    Optional fields: xi (body velocity coefficients, shape (n, 3)), g (group
    elements, (n, d, d)), and x and p (states and costates, scalar or matrix
    per space).  A trajectory holds only what was integrated or transported;
    the control field on its samples is evaluated where it is measured
    (verify).
    """

    __slots__ = ("group", "times", "xi", "g", "x", "p")

    def __init__(self, group: GroupId, times, xi=None, g=None, x=None,
                 p=None):
        t = np.asarray(times, dtype=np.float64)
        if t.ndim != 1 or t.size < 2:
            raise DomainError("times must hold at least two samples")
        dt = np.diff(t)
        if not np.all(dt > 0):
            raise DomainError("times must be strictly increasing")
        if np.abs(dt - dt[0]).max() > 1e-9 * max(dt[0], 1.0):
            raise DomainError("times must be uniform")
        for name, arr in (("xi", xi), ("g", g), ("x", x), ("p", p)):
            if arr is not None and len(arr) != t.size:
                raise DomainError(f"{name} has {len(arr)} samples for "
                                  f"{t.size} grid points")
        self._set(group=group, times=t, xi=xi, g=g, x=x, p=p)

    def replace(self, **fields) -> "Trajectory":
        """A new trajectory with the given fields replaced and the others
        kept, checked as any new one is."""
        kept = {name: getattr(self, name) for name in self.__slots__}
        return Trajectory(**{**kept, **fields})

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])


class SymmetricSolutionParams(Record):
    """Parameters of the equal-transverse-inertia special case.

    Derived quantities: the exponent alpha = 2 xi0 (I0 - I) / I and the
    solution constants C0 = I0 xi0 / (2 B0), C+ = I xi_plus0 / (2 B+),
    C- = I xi_minus0 / (2 B-).
    """

    __slots__ = ("I", "I0", "B_plus", "B_minus", "B_zero", "xi0",
                 "xi_plus0", "xi_minus0")

    def __init__(self, I: float, I0: float, B_plus: float = 1.0,
                 B_minus: float = 1.0, B_zero: float = 1.0, xi0: float = 0.0,
                 xi_plus0: complex = 0.0, xi_minus0: complex = 0.0):
        if I == 0:
            raise DomainError("transverse inertia I must be nonzero")
        if B_plus * B_minus * B_zero == 0:
            raise DomainError("all connection coefficients must be nonzero")
        self._set(I=I, I0=I0, B_plus=B_plus, B_minus=B_minus, B_zero=B_zero,
                  xi0=xi0, xi_plus0=xi_plus0, xi_minus0=xi_minus0)

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


def euler_poincare_rhs(group: GroupId, J: InertiaOperator,
                       xi: AlgebraElement) -> AlgebraElement:
    """Body-velocity derivative of the reduced free motion at one point.

    This is the Euler-Poincare equation in momentum form: with mu = I xi,
    mu'_b = sum_ac C[a, b, c] xi_a mu_c for the structure constants C
    (Marsden-Ratiu, Introduction to Mechanics and Symmetry, ch. 13).  On
    so3 and su2, whose tables are totally antisymmetric, it is the
    classical I^-1 [I xi, xi].  Evaluated by the closed formula that
    integrate_euler_poincare marches (_euler_poincare_field).
    """
    if J.group is not group or xi.group is not group:
        raise DomainError("group mismatch in reduced dynamics")
    field = _euler_poincare_field(group, J)
    return AlgebraElement(group, field(*xi.coeffs.tolist()))


# The reduced flow and the line extremal's Clebsch march are autonomous
# flows of a few scalars, and one generated step serves both: an
# advance(k, y) for _march with an explicit Euler and a classical RK4 branch
# (_autonomous_step).  A step unpacks the state into local Python scalars
# and hands them to a field that takes the scalars as arguments, so a stage
# builds no list and runs no loop: at three or four components, scalar
# arithmetic costs a few microseconds per step where small numpy arrays or
# per-stage lists cost tens.  The scalars are complex only where the state
# is.  Both fields, and a family driven by real coefficient rows, have real
# coefficients on every group, so a real start of any of them marches on
# floats (_real_start says why that is exact); on su2 and so21 only a start
# with a nonzero imaginary part or a negative zero marches on complex
# scalars.  The reduced field is six products, generated from the nonzero
# pattern of the coadjoint table on every group (_euler_poincare_field).

@functools.cache
def _generated(source: str, name: str):
    # the function named factory that source defines, compiled once
    namespace = {}
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace["factory"]


def _autonomous_step(method: str, f, h: float, n: int):
    """The step of y' = f(y_0, ..., y_{n-1}) for _march, straight-line
    code on the n state scalars, compiled once per method and n."""
    def row(term):
        return ", ".join(term.format(i) for i in range(n))
    body = [f"{row('v{}')} = y", f"{row('a{}')} = f({row('v{}')})"]
    if method == "euler":
        body.append(f"return ({row('v{0} + h * a{0}')})")
    else:
        body += [f"{row('b{}')} = f({row('v{0} + h2 * a{0}')})",
                 f"{row('c{}')} = f({row('v{0} + h2 * b{0}')})",
                 f"{row('d{}')} = f({row('v{0} + h * c{0}')})",
                 "return ({})".format(row(
                     "v{0} + h6 * (a{0} + 2.0 * b{0} + 2.0 * c{0} + d{0})"))]
    source = ("def factory(f, h, h2, h6):\n    def step(k, y):\n        "
              + "\n        ".join(body) + "\n    return step\n")
    return _generated(source, f"{method} step")(f, h, h / 2.0, h / 6.0)


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


def _real_start(values: list) -> list:
    """The start of a march whose flow has real coefficients, on floats
    where that is exact.

    Such a flow keeps a real start real, so the start marches on Python
    floats, at about half the cost of complex scalars, when every value has
    an imaginary part of exactly +0.0 and no part that is a negative zero.
    The samples agree bit for bit with the complex march: its imaginary
    parts start at +0.0 and every update adds only +-0 to them, so they stay
    +0.0, and its real parts see the same products and sums.  Only the sign
    of an exact zero can differ between the two arithmetics, and it reaches
    a sample only from a negative-zero start, which keeps its scalars, as
    does a start with a nonzero imaginary part.
    """
    for v in values:
        if (v.imag != 0 or math.copysign(1.0, v.imag) < 0
                or (v.real == 0 and math.copysign(1.0, v.real) < 0)):
            return values
    return [v.real for v in values]


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


def _bilinear_field(pattern: tuple):
    """Factory of the closure field(v0, v1, v2) whose component c is the
    sum of v_a * (t_k * v_b) over the entries k = (c, a, b) of pattern, in
    order.  The factory takes the coefficients t_k and binds them as the
    closure's cells.  Compiled once per pattern (_generated)."""
    rows = [[] for _ in range(3)]
    for k, (c, a, b) in enumerate(pattern):
        rows[c].append(f"v{a} * (t{k} * v{b})")
    coeffs = ", ".join(f"t{k}" for k in range(len(pattern)))
    source = (f"def factory({coeffs}):\n"
              f"    def field(v0, v1, v2):\n"
              f"        return ({', '.join(' + '.join(r) for r in rows)})\n"
              f"    return field\n")
    return _generated(source, "euler-poincare field")


def _euler_poincare_field(group: GroupId, J: InertiaOperator):
    """euler_poincare_rhs as a closed formula on Python scalars.

    With mu = I xi the field is bilinear:
    rhs_c = sum_ab T[c, a, b] xi_a xi_b, with T[c, a, b] =
    I_a C[b, c, a] (1 / I_c) for the structure constants C read as the
    coadjoint table.  On all four groups each component c has exactly two
    nonzero table entries, so the field is six products: the classical
    Euler pattern (c, a, b distinct) on so3, su2 and so21, and a pattern of
    its own on sl2r.  On so3 and su2, whose tables are totally
    antisymmetric, C[b, c, a] = C[a, b, c].

    One closure serves every group, generated from the table's nonzero
    pattern (_bilinear_field) with the six coefficients as its cells.  Each
    product is the dense 27-term sum's own term xi_a (T[c, a, b] xi_b),
    summed in its order, so the two agree bit for bit except for the sign
    of an exact zero.
    """
    I = J.coeffs
    table = _STRUCTURE[group].transpose(1, 2, 0)  # table[c, a, b] = C[b, c, a]
    # times 1 / I_c rather than divided by I_c: the two round differently
    T = I[:, None] * table * (1.0 / I)[:, None, None]
    nonzero = np.nonzero(table)
    pattern = tuple(zip(*(i.tolist() for i in nonzero)))
    return _bilinear_field(pattern)(*T[nonzero].tolist())


def integrate_euler_poincare(group: GroupId, J: InertiaOperator,
                             xi0: AlgebraElement,
                             cfg: IntegratorConfig) -> Trajectory:
    """Integrate the reduced body-velocity flow; returns a xi-only trajectory."""
    if xi0.group is not group:
        raise DomainError("initial velocity group mismatch")
    if J.group is not group:
        raise DomainError("group mismatch in reduced dynamics")
    times = cfg.times()
    step = _autonomous_step(cfg.method, _euler_poincare_field(group, J),
                            cfg.step, 3)
    # the field's coefficients T are real on every group
    ys = _march(step, _real_start(xi0.coeffs.tolist()), times,
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
    return xi_traj.replace(g=np.asarray(gs, dtype=group.scalar_dtype))


def _line_point(group: GroupId, *values) -> list:
    # line states and costates as Python scalars: float on sl2r, else complex
    space = moebius_line(group)
    return [_line_scalar(space, v) for v in values]


# The line extremal is marched in Clebsch variables (Cendra-Marsden, "Lin
# constraints, Clebsch potentials and variational principles", Physica D
# 27, 1987): a vector u and a covector q of the defining representation,
# read on the line as the point x = u1 / u2 and its costate p = q1 u2.
# The optimal control xi_a = B_a q^T E_a u / I_a turns the extremal into the
# bilinear flow u' = M u, q' = -M^T q with M = sum_a B_a xi_a E_a, which
# keeps the Lin constraint q^T u = 0 and has no pole: where x passes
# through infinity, u2 passes through zero.

def _clebsch_field(group: GroupId, B: ConnectionCoefficients,
                   J: InertiaOperator):
    """The Clebsch flow field(u1, u2, q1, q2) = (u', q') as a closed
    formula on Python scalars or on arrays of points alike.

    With E_a = [[alpha, beta], [gamma, -alpha]] = basis(group)[a] and
    v_a = (alpha, beta, gamma), the pairing q^T E_a u is v_a . w with
    w = (q1 u1 - q2 u2, q1 u2, q2 u1), so the entries (M11, M12, M21) of M
    are K w with K = sum_a (B_a^2 / I_a) v_a v_a^T.  Each v_a is purely
    real or purely imaginary, so K is real on every group and held as
    floats.
    """
    v = _BASES[group][:, [0, 0, 1], [0, 1, 0]]
    K = np.einsum("a,ai,aj->ij", B.diag * B.diag / J.coeffs, v, v).real
    (k0, k1, k2), (k3, k4, k5), (k6, k7, k8) = K.tolist()

    def field(u1, u2, q1, q2):
        w0, w1, w2 = q1 * u1 - q2 * u2, q1 * u2, q2 * u1
        m11 = k0 * w0 + k1 * w1 + k2 * w2
        m12 = k3 * w0 + k4 * w1 + k5 * w2
        m21 = k6 * w0 + k7 * w1 + k8 * w2
        return (m11 * u1 + m12 * u2, m21 * u1 - m11 * u2,
                -(m11 * q1 + m21 * q2), m11 * q2 - m12 * q1)
    return field


def _chart_rates(group, B, J, x, p):
    # the Clebsch field at u = (x, 1), q = (p, -p x), read on the line:
    # x = u1 / u2 and p = q1 u2 give x' = u1' - x u2' and p' = q1' + p u2'
    du1, du2, dq1, _ = _clebsch_field(group, B, J)(x, 1.0, p, 0.0 - p * x)
    return du1 - x * du2, dq1 + p * du2


def _line_feedback(group, B, J, x, p):
    # xi_a = p X_a(x) / I_a at the points x, p (arrays or scalars alike),
    # the slots on a trailing axis
    g = line_generator_polynomials(group, B) / J.coeffs[:, None]
    x, p = np.asarray(x)[..., None], np.asarray(p)[..., None]
    return p * (g[:, 0] + x * (g[:, 1] + x * g[:, 2]))


def feedback_solve(group: GroupId, B: ConnectionCoefficients,
                   J: InertiaOperator, x, p) -> AlgebraElement:
    """Optimal control on the line: xi_a = p X_a(x) / I_a.

    This is the stationary point of the costate Hamiltonian in the control;
    for the diagonal cost the stationarity is slot-by-slot.  It is the
    array expression integrate_extremal evaluates on all its samples at
    once, read at one point.
    """
    return AlgebraElement(
        group, _line_feedback(group, B, J, *_line_point(group, x, p)))


def closed_loop_rhs(group: GroupId, B: ConnectionCoefficients,
                    J: InertiaOperator, x, p):
    """Feedback-substituted extremal field on the line.

    Substituting the optimal feedback into the control coefficients gives
    xdot = a x^2 + b x + c and pdot = -(2 a x + b) p with (a, b, c)
    evaluated at the feedback control.  Evaluated as the Clebsch field that
    integrate_extremal marches, read at u = (x, 1), q = (p, -p x):
    xdot = u1' - x u2' and pdot = q1' + p u2'.
    """
    return _chart_rates(group, B, J, *_line_point(group, x, p))


_ESCAPE = ("extremal escaped near t = {t:.6g} (last finite sample at "
           "t = {last:.6g})")


def _u2_zero(field, h: float, a, b) -> float:
    """The zero in (0, h] of the cubic Hermite interpolant of u2 over the
    step from the Clebsch state a (u2 > 0) to b (u2 <= 0), from u2 and
    u2' at both ends, bisected to roundoff."""
    y0, d0, y1, d1 = a[1], h * field(*a)[1], b[1], h * field(*b)[1]
    lo, hi = 0.0, 1.0
    for _ in range(60):
        s = 0.5 * (lo + hi)
        r = 1.0 - s
        above = r * r * ((1.0 + 2.0 * s) * y0 + s * d0) > s * s * (
            r * d1 - (3.0 - 2.0 * s) * y1)
        lo, hi = (s, hi) if above else (lo, s)
    return h * hi


def integrate_extremal(space: StateSpace, B: ConnectionCoefficients,
                       J: InertiaOperator, x0, p0,
                       cfg: IntegratorConfig) -> Trajectory:
    """Integrate the extremal flow on the line, storing states, costates
    and controls.

    The march follows the Clebsch state (u1, u2, q1, q2) of _clebsch_field
    from u0 = (x0, 1), q0 = (p0, -p0 x0).  The samples are its readout
    x = u1 / u2, p = q1 u2, and the controls the optimal feedback
    xi_a = p X_a(x) / I_a on them, one array expression (feedback_solve).
    On su2 and so21, x passing through infinity is no escape and the march
    runs on.  On sl2r the line is real and x escapes where u2 first reaches
    zero: the first sample with u2 <= 0 stops the run with a
    DivergenceError whose escape time is the zero of the cubic Hermite
    interpolant of u2 over that step, from u2 and u2' = M21 u1 - M11 u2 at
    both ends.  A Clebsch state that leaves the finite range stops the run
    as _march does, unless a sign change of u2 among the finite samples
    comes first.  Either error carries the readouts (x, p) of the samples
    it keeps.  Group-manifold extremals come from lift_extremal instead.
    """
    if not space.is_line:
        raise DomainError("group-manifold extremals are the group curve "
                          "carried to (x0, p0): use lift_extremal")
    group, times, h = space.group, cfg.times(), cfg.step
    field = _clebsch_field(group, B, J)
    x0, p0, one = _line_point(group, x0, p0, 1.0)
    # 0.0 - p0 x0 holds no negative zero where p0 x0 is real, so a real
    # (x0, p0) is a real Clebsch start
    start = _real_start([x0, one, p0, 0.0 - p0 * x0])
    try:
        ys, err = _march(_autonomous_step(cfg.method, field, h, 4), start,
                         times, _ESCAPE), None
    except DivergenceError as e:
        ys, err = e.states, e
    u1, u2, q1, _ = np.array(ys, dtype=group.scalar_dtype).T
    # the sample before the first with u2 <= 0 on sl2r (u2 = 1 at sample
    # 0, so argmax reads 0 and k = -1 where there is none)
    k = int((u2 <= 0).argmax()) - 1 if group is GroupId.SL2R else -1
    if k >= 0:
        t = times[k] + _u2_zero(field, h, ys[k], ys[k + 1])
        err = DivergenceError(_ESCAPE.format(t=t, last=times[k]), float(t), k)
    x, p = u1 / u2, q1 * u2
    if err is not None:
        err.states = np.stack((x, p), axis=-1)[:err.last_index + 1].tolist()
        raise err
    return Trajectory(group=group, times=times,
                      xi=_line_feedback(group, B, J, x, p), x=x, p=p)


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
    return curve.replace(x=xs, p=ps)


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
    if xi.shape != (times.size, 3):
        raise DomainError("control samples do not match the config grid")
    polys = xi @ line_generator_polynomials(group, B)  # rows (c0, c1, c2)
    family = np.ndim(x0) == 1
    start = _line_point(group, *(x0 if family else [x0]))
    if not polys.imag.any():  # real rows keep a real start real
        start = _real_start(start)
        if isinstance(start[0], float):
            polys = polys.real
    ends = polys.tolist()
    mids = (0.5 * (polys[:-1] + polys[1:])).tolist()
    ys = _march(_riccati_step(cfg.method, ends, mids, cfg.step), start, times,
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
