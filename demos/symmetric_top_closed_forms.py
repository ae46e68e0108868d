#!/usr/bin/env python3
"""Symmetric-inertia extremals on the three line actions.

The closed-form (x, p) family rests on an exponential ansatz for equal
plus/minus inertia: a frozen central velocity component and outer
components moving on exponentials with rate alpha = 2 xi_0 (I0 - I) / I,
on all three groups.  The reduced flow is the Euler-Poincare (coadjoint)
equation, and it bears the ansatz out on none of them: on su2 the central
slot freezes but the outer slots rotate, and on sl2r and so21 the central
slot moves as well.  This script prints the derived constants, measures
each group's reduced flow against the ansatz, and reports the honest sup
gap between the (x, p) formulas and the integrated feedback-substituted
loop.  The formulas do not track the loop either: substituting the
feedback into the state equation forces sign(xdot) = sign(p), which the
decaying formula curves violate, so the gap is order one and for the
hyperbolic seed values the loop blows up in finite time.  On sl2r the
printed formulas thus solve neither the coadjoint flow nor the loop.
"""

import argparse
import sys

import numpy as np

from lsb_lab import (
    AlgebraElement,
    DivergenceError,
    GroupId,
    IntegratorConfig,
    SymmetricSolutionParams,
    check_closed_form,
    closed_form_symmetric,
    inertia_diagonal,
    integrate_euler_poincare,
    integrate_extremal,
    moebius_line,
)

DEFAULT_MINUS = {"sl2r": "-0.25", "su2": "1.4142135623730951j", "so21": "0"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--group", choices=["sl2r", "su2", "so21"],
                    default="sl2r")
    ap.add_argument("--inertia", type=float, nargs=2, default=[1.0, 2.0],
                    metavar=("I", "I0"))
    ap.add_argument("--xi0", type=float, default=0.5)
    ap.add_argument("--xi-plus0", type=float, default=1.0)
    ap.add_argument("--xi-minus0", type=str, default=None,
                    help="python complex literal, e.g. '0.5' or '1.2j'")
    ap.add_argument("--step", type=float, default=1e-4)
    ap.add_argument("--horizon", type=float, default=1.0)
    args = ap.parse_args(argv)

    gid = GroupId(args.group)
    minus_raw = args.xi_minus0 or DEFAULT_MINUS[args.group]
    minus = complex(minus_raw) if gid.is_complex else float(minus_raw)
    pars = SymmetricSolutionParams(I=args.inertia[0], I0=args.inertia[1],
                                   xi0=args.xi0, xi_plus0=args.xi_plus0,
                                   xi_minus0=minus)
    print(f"{gid.value}: I={pars.I:g}, I0={pars.I0:g}, xi0={pars.xi0:g}, "
          f"xi_plus0={pars.xi_plus0:g}, xi_minus0={minus}")
    print(f"  exponential rate alpha = {pars.alpha:g}")
    print(f"  constants C0={pars.C0}, C_plus={pars.C_plus}, "
          f"C_minus={pars.C_minus}")

    # the reduced flow for the symmetric inertia, against the ansatz
    J = inertia_diagonal(gid, pars.I, pars.I, pars.I0)
    cfg = IntegratorConfig("rk4", 1e-3, args.horizon)
    ep = integrate_euler_poincare(
        gid, J, AlgebraElement(gid, [pars.xi_plus0, minus, pars.xi0]), cfg)
    t = ep.times
    gap_plus = np.abs(ep.xi[:, 0]
                      - pars.xi_plus0 * np.exp(pars.alpha * t)).max()
    gap_minus = np.abs(ep.xi[:, 1] - minus * np.exp(-pars.alpha * t)).max()
    drift0 = np.abs(ep.xi[:, 2] - ep.xi[0, 2]).max()
    print(f"  reduced flow: xi_0 drift {drift0:.3e}")
    print(f"  exponential ansatz vs this group's reduced flow: gaps "
          f"{gap_plus:.3e} / {gap_minus:.3e}")
    if gid is GroupId.SU2:
        print("  (here the outer slots rotate at rate alpha instead)")
    elif gid is GroupId.SL2R:
        print("  (the coadjoint flow moves xi_0 as well: the formulas below "
              "solve neither this flow nor the substituted loop)")

    ts = np.linspace(0.0, args.horizon, 5)
    x, p = closed_form_symmetric(gid, pars, ts)
    print("  formula samples:")
    for tv, xv, pv in zip(ts, x, p):
        print(f"    t={tv:4.2f}  x={xv}  p={pv}")

    try:
        loop = integrate_extremal(
            moebius_line(gid), pars.connection(), J, x[0], p[0],
            IntegratorConfig("rk4", args.step, args.horizon))
    except DivergenceError as e:
        print(f"  substituted loop diverged near t = {e.escape_time:.6g}; "
              "no finite gap to report")
        return 0
    res = check_closed_form(pars, loop)
    verdict = "inside" if res.passed else "OUTSIDE"
    print(f"  formulas vs substituted loop: sup gap {res.max_residual:.6e}, "
          f"{verdict} the {res.tolerance:g} gate")
    if not res.passed:
        print("  (expected: the formulas do not solve the substituted "
              "loop)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
