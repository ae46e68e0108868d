#!/usr/bin/env python3
"""Tour of the algebra tables behind the four supported groups.

Prints the pinned basis, the bracket table, the trace pairing on basis
pairs, and for the three line actions the induced quadratic generators
together with their closure constants.  A short flow check shows that
pushing a point along the frozen generator field for time t lands on the
same point as acting with the exponential of t times the generator.
"""

import argparse
import sys

import numpy as np

from lsb_lab import (
    AlgebraElement,
    ConnectionCoefficients,
    GroupId,
    IntegratorConfig,
    basis,
    bracket,
    constraint_residual,
    exp_map,
    integrate_riccati,
    killing_form,
    line_generator_polynomials,
    moebius_apply,
    moebius_closure_constants,
    structure_constants,
)

SLOTS = ["plus", "minus", "zero"]


def fmt(v, signed=False):
    """Render a possibly-complex scalar compactly; drop a ~0 imag part."""
    v = complex(v)
    if abs(v.imag) <= 1e-12 * max(1.0, abs(v.real)):
        return f"{v.real:+g}" if signed else f"{v.real:g}"
    if abs(v.real) <= 1e-12 * abs(v.imag):
        return f"{v.imag:+g}j" if signed else f"{v.imag:g}j"
    return f"({v.real:g}{v.imag:+g}j)"


def closure_residual(rows, tensor):
    """Largest coefficient of [X_a, X_b] - sum_c tensor[a, b, c] X_c over
    all slot pairs, for the line fields X_a(x) = rows[a] . (1, x, x^2) and
    their commutator [X, Y] = X Y' - Y X'."""
    P = np.polynomial.polynomial
    worst = 0.0
    for a in range(3):
        for b in range(3):
            comm = P.polysub(P.polymul(rows[a], P.polyder(rows[b])),
                             P.polymul(rows[b], P.polyder(rows[a])))
            gap = P.polysub(comm, tensor[a, b] @ rows)
            worst = max(worst, np.abs(gap).max())
    return worst


def show_group(gid, seed):
    print(f"== {gid.value} ==")
    e = basis(gid)
    for name, m in zip(SLOTS, e):
        rows = "; ".join(" ".join(fmt(v) for v in row) for row in m)
        print(f"  e_{name:<5s} [{rows}]")

    C = structure_constants(gid)
    for a in range(3):
        for b in range(a + 1, 3):
            ea = AlgebraElement(gid, np.eye(3)[a])
            eb = AlgebraElement(gid, np.eye(3)[b])
            got = bracket(ea, eb).coeffs
            terms = [f"{fmt(c, signed=True)} e_{SLOTS[k]}"
                     for k, c in enumerate(got) if c != 0] or ["0"]
            print(f"  [e_{SLOTS[a]}, e_{SLOTS[b]}] = {' '.join(terms)}")
            assert np.array_equal(np.real_if_close(got), C[a, b])

    rng = np.random.default_rng(seed)
    xi = AlgebraElement(gid, rng.uniform(-1.0, 1.0, 3))
    zeta = AlgebraElement(gid, rng.uniform(-1.0, 1.0, 3))
    print(f"  trace pairing <xi, zeta> = {fmt(killing_form(xi, zeta))}")
    g = exp_map(xi)
    print(f"  exp(xi) constraint residual {constraint_residual(g):.3e}")

    if gid is GroupId.SO3:
        print()
        return

    B = ConnectionCoefficients.maurer_cartan()
    rows = line_generator_polynomials(gid, B)
    for name, row in zip(SLOTS, rows):
        terms = [f"{fmt(c, signed=True)}{p}"
                 for c, p in zip(row, ["", " x", " x^2"]) if c != 0] or ["0"]
        print(f"  X_{name:<5s}(x) = {' '.join(terms)}")
    tensor = moebius_closure_constants(gid, B)
    residual = closure_residual(rows, tensor)
    sign_note = ("negated bracket table"
                 if np.allclose(tensor, -C) else "see tensor")
    print(f"  field closure residual {residual:.3e} "
          f"(constants = {sign_note})")

    # flow of a frozen random generator vs the exponential action
    x0 = 0.3 if not gid.is_complex else 0.3 + 0.2j
    t_end = 0.5
    cfg = IntegratorConfig("rk4", 1e-3, t_end)
    xi_arr = np.tile(xi.coeffs, (cfg.n_steps + 1, 1))
    flow = integrate_riccati(gid, B, xi_arr, x0, cfg)
    scaled = AlgebraElement(gid, t_end * xi.coeffs)
    via_exp = moebius_apply(gid, exp_map(scaled), x0)
    print(f"  flow({t_end:g}) = {flow.x[-1]}  exp action = {via_exp}  "
          f"gap {abs(flow.x[-1] - via_exp):.3e}")
    print()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--group", choices=[g.value for g in GroupId] + ["all"],
                    default="all")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    groups = list(GroupId) if args.group == "all" else [GroupId(args.group)]
    for gid in groups:
        show_group(gid, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
