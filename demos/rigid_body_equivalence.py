#!/usr/bin/env python3
"""Free rigid body two ways: reduced velocity flow vs constrained extremal.

Integrates the body-velocity equations for a diagonal inertia, reconstructs
the rotation curve, then carries it to the lifted extremal on the group
manifold whose costate starts at the minimum-norm match of the initial
momentum.
Both presentations should agree: the lift satisfies the control equation
and the momentum constraint, the first integrals stay flat, and the plain
and lifted action integrals coincide.
"""

import argparse
import sys

from lsb_lab import (
    AlgebraElement,
    ConnectionCoefficients,
    GroupId,
    IntegratorConfig,
    check_action_equality,
    check_conservation,
    check_equivalence_rigid,
    check_rk4_order,
    group_identity,
    inertia_diagonal,
    integrate_euler_poincare,
    lift_extremal,
    objective_value,
    reconstruct_group,
)
from lsb_lab.verify import min_norm_costate


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inertia", type=float, nargs=3, default=[1.0, 2.0, 3.0],
                    metavar=("J1", "J2", "J3"))
    ap.add_argument("--omega0", type=float, nargs=3, default=[0.8, 0.3, 0.1],
                    metavar=("W1", "W2", "W3"))
    ap.add_argument("--step", type=float, default=1e-3)
    ap.add_argument("--horizon", type=float, default=1.0)
    ap.add_argument("--drift-horizon", type=float, default=10.0,
                    help="longer run used only for the first integrals")
    args = ap.parse_args(argv)

    J = inertia_diagonal(GroupId.SO3, *args.inertia)
    om0 = AlgebraElement(GroupId.SO3, args.omega0)
    cfg = IntegratorConfig("rk4", args.step, args.horizon)
    B = ConnectionCoefficients.maurer_cartan()

    print(f"inertia diag {tuple(args.inertia)}, omega0 {tuple(args.omega0)}, "
          f"rk4 h={args.step:g} on [0, {args.horizon:g}]")

    def line(label, text):
        print(f"  {label:<34s}{text}")

    ep = integrate_euler_poincare(GroupId.SO3, J, om0, cfg)
    x0 = group_identity(GroupId.SO3)
    curve = reconstruct_group(GroupId.SO3, ep, x0)
    # momentum matching at t = 0 pins the skew part of x0^T p0; the
    # minimum-norm costate zeroes the rest
    p0 = min_norm_costate(GroupId.SO3, J.coeffs, om0.coeffs, x0.matrix)
    lift = lift_extremal(curve, x0, p0)
    ctrl, cons = check_equivalence_rigid(J, lift)
    line("control equation residual", f"{ctrl.max_residual:.3e}")
    line("momentum constraint residual", f"{cons.max_residual:.3e}")

    long_cfg = IntegratorConfig("rk4", args.step, args.drift_horizon)
    energy, casimir = check_conservation(
        J, integrate_euler_poincare(GroupId.SO3, J, om0, long_cfg))
    line(f"energy drift over [0, {args.drift_horizon:g}]",
         f"{energy.max_residual:.3e}")
    line("squared-momentum drift", f"{casimir.max_residual:.3e}")

    act = check_action_equality(J, B, lift)
    S = objective_value(J, ep)
    line("plain action integral", f"{S:.12f}")
    line("lifted vs plain relative gap", f"{act.max_residual:.3e}")

    order = check_rk4_order(GroupId.SO3, J, om0,
                            IntegratorConfig("rk4", args.horizon / 10.0,
                                             args.horizon))
    line("step-halving error ratio", f"16 +/- {order.max_residual:.3f}")

    bad = [r for r in (ctrl, cons, energy, casimir, act, order)
           if not r.passed]
    print("all checks passed" if not bad
          else f"{len(bad)} check(s) failed")
    return 0 if not bad else 2


if __name__ == "__main__":
    sys.exit(main())
