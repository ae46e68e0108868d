#!/usr/bin/env python3
"""Nonlinear superposition on the line: four solutions pin all the rest.

Runs four solutions of the induced quadratic flow xdot = x^2 (the frozen
control (0, -1, 0) on the hyperbolic line) and tracks their cross-ratio,
which stays constant even though the equation is nonlinear.  Against the
exact family x0 / (1 - x0 t) the integrated curves agree to integrator
accuracy.
"""

import argparse
import sys

import numpy as np

from lsb_lab import (
    ConnectionCoefficients,
    DivergenceError,
    GroupId,
    IntegratorConfig,
    check_cross_ratio,
    integrate_riccati,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--starts", type=float, nargs=4,
                    default=[1.0, 2.0, 3.0, 4.0],
                    metavar=("X1", "X2", "X3", "X4"))
    ap.add_argument("--step", type=float, default=1e-3)
    ap.add_argument("--horizon", type=float, default=0.2,
                    help="keep x0 * horizon < 1 or the flow reaches a pole")
    ap.add_argument("--rows", type=int, default=6,
                    help="sample rows to print")
    args = ap.parse_args(argv)

    cfg = IntegratorConfig("rk4", args.step, args.horizon)
    B = ConnectionCoefficients.maurer_cartan()
    xi = np.tile([0.0, -1.0, 0.0], (cfg.n_steps + 1, 1))

    # the four starts march as one family, x of shape (n+1, 4)
    try:
        fam = integrate_riccati(GroupId.SL2R, B, xi, args.starts, cfg)
    except DivergenceError as exc:
        print(f"the family diverged: {exc}", file=sys.stderr)
        return 3

    t = cfg.times()
    x = fam.x.T
    cr = ((x[0] - x[2]) * (x[1] - x[3])) / ((x[0] - x[3]) * (x[1] - x[2]))

    hdr = ["t"] + [f"x({s:g})" for s in args.starts] + ["cross-ratio"]
    print("  ".join(f"{h:>12s}" for h in hdr))
    for k in np.linspace(0, t.size - 1, args.rows).astype(int):
        row = [t[k], *x[:, k], cr[k]]
        print("  ".join(f"{v:12.8f}" for v in row))

    res = check_cross_ratio(fam)
    exact = max(float(np.abs(xs - s / (1.0 - s * t)).max())
                for s, xs in zip(args.starts, x))
    print(f"cross-ratio relative drift {res.max_residual:.3e} "
          f"(gate {res.tolerance:g})")
    print(f"max gap to exact family    {exact:.3e}")
    return 0 if res.passed else 2


if __name__ == "__main__":
    sys.exit(main())
