"""Seeded workload generation: scenario files and the CLI operations on them.

Every workload is a cycle of operations ("ops").  One op is one invocation of
the lsb-lab command line on one generated scenario file.  The cycle is built
from blocks; a run always ends on a block boundary, so the share of each op
kind in a run is fixed by the workload and not by where the clock stopped.

The generator depends only on the seed: it uses the standard library's
``random.Random`` seeded with a string and the exact formulas below, never the
library under test, so the inputs stay the same when the program changes.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

RIGID_CHECKS = ["equivalence_rigid", "energy_conservation",
                "casimir_conservation", "rk4_order", "action_equality"]
RICCATI_CHECKS = ["cross_ratio", "action_equality", "closed_form"]

# Rigid-body horizons and velocities stay inside the truncation regime that
# check_rk4_order documents as its domain (coarse step horizon / 10): with
# these ranges its error ratio stays well inside the [12, 20] band.
RIGID_XI_RANGE = (0.25, 0.6)
# rigid_long: thousands of RK4 steps per op (horizon / step = 2000).
RIGID_HORIZON, RIGID_STEP = 0.5, 0.00025
# riccati_long: the same grid for the regular line ops ...
RICCATI_HORIZON, RICCATI_STEP = 1.0, 0.0005
# ... and a longer horizon for the pole ops, whose exact pole t* is drawn
# from POLE_T_RANGE so that every horizon lies past it.
POLE_HORIZON, POLE_STEP = 2.0, 0.001
POLE_T_RANGE = (0.5, 1.5)
# sweeps in rigid_long: the same horizon on a coarse grid (50 steps per
# value).
SWEEP_HORIZON, SWEEP_STEP = 0.5, 0.01
SWEEP_PARAM = "initial.xi0.0"
SWEEP_VALUES = 12

# Blocks generated per workload; the cycle repeats only after all of them.
BLOCKS = 16

# sl2r line with B = (1, 1, 1) and I = (1, 1, 2): the closed loop is solved by
# x(t) = tan(arctan x0 + p0 (1 + x0^2) t), which fixes the exact pole t*.
EXACT_CONNECTION = [1.0, 1.0, 1.0]
EXACT_INERTIA = [1.0, 1.0, 2.0]


@dataclass
class Op:
    """One CLI invocation and what its outcome must be."""

    kind: str              # "rigid", "riccati", "pole" or "sweep"
    command: str           # CLI subcommand
    scenario_file: str     # file name inside the generated directory
    scenario: dict
    samples: int           # grid samples the op produces when it succeeds
    t_star: float | None = None     # exact pole time of a "pole" op
    sweep_values: list = field(default_factory=list)

    def argv(self, scenario_dir, out_dir):
        argv = [self.command, os.path.join(scenario_dir, self.scenario_file),
                "--out", out_dir]
        if self.command == "sweep":
            argv += ["--param", SWEEP_PARAM,
                     "--values=" + ",".join(self.sweep_values)]
        return argv


@dataclass
class Workload:
    name: str
    why: str
    block: tuple           # "kind:group" of each op of a block, in order;
                           # "a/b" alternates the group from block to block


WORKLOADS = {
    "rigid_long": Workload(
        "rigid_long",
        "verify on seeded so3/su2 rigid bodies, 2000 RK4 steps each, and one "
        "12-value sweep in five ops: Euler-Poincare RK4, expm reconstruction",
        ("rigid:so3", "rigid:su2", "rigid:so3", "rigid:su2",
         "sweep:so3/su2")),
    "riccati_long": Workload(
        "riccati_long",
        "verify on seeded sl2r/su2/so21 line extremals plus one exact-pole "
        "sl2r op per block: line closed loop, Riccati family, divergence",
        ("riccati:sl2r", "riccati:su2", "riccati:so21", "pole:sl2r")),
}


def _signed(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _asymmetric_inertia(rng):
    # well separated principal moments keep the motion away from the
    # free-precession case, where rk4_order errors sink into roundoff
    moments = [rng.uniform(0.8, 1.2), rng.uniform(1.8, 2.2),
               rng.uniform(2.8, 3.2)]
    rng.shuffle(moments)
    return moments


def _unit_vector(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(c * c for c in v))
        if n > 1e-3:
            return [c / n for c in v]


def random_group_element(rng, group):
    """A random element of SO(3) (Rodrigues) or SU(2) (unit quaternion), as
    scenario JSON: nested lists, complex entries as [re, im]."""
    u = _unit_vector(rng)
    angle = rng.uniform(0.0, math.pi)
    if group == "so3":
        x, y, z = u
        c, s = math.cos(angle), math.sin(angle)
        k = [[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]]
        return [[(1.0 if i == j else 0.0) + s * k[i][j]
                 + (1.0 - c) * sum(k[i][m] * k[m][j] for m in range(3))
                 for j in range(3)] for i in range(3)]
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    a = complex(c, s * u[0])
    b = complex(s * u[1], s * u[2])
    rows = [[a, b], [-b.conjugate(), a.conjugate()]]
    return [[[e.real, e.imag] for e in row] for row in rows]


def _outputs():
    return {"trajectory_csv": "traj.csv", "report_json": "report.json"}


def _rigid_scenario(rng, group, horizon, step):
    return {
        "group": group,
        "problem": "rigid_body",
        "inertia": {"diag": _asymmetric_inertia(rng)},
        "connection": [1.0, 1.0, 1.0],
        "initial": {
            "xi0": [_signed(rng, *RIGID_XI_RANGE) for _ in range(3)],
            "g0": random_group_element(rng, group),
            "x0": random_group_element(rng, group),
        },
        "horizon": horizon,
        "step": step,
        "integrator": "rk4",
        "checks": list(RIGID_CHECKS),
        "outputs": _outputs(),
    }


def _riccati_scenario(rng, group):
    # small costates keep the extremal and the four cross-ratio curves
    # (x0 + 0, 0.4, -0.4, 0.9) finite over the horizon
    inertia = rng.uniform(1.0, 2.0)
    checks = list(RICCATI_CHECKS)
    if group == "sl2r":
        checks.append("closed_loop_audit")
    return {
        "group": group,
        "problem": "riccati",
        "inertia": {"diag": [inertia, inertia, rng.uniform(1.0, 3.0)]},
        "connection": [rng.uniform(0.6, 1.4) for _ in range(3)],
        "initial": {"x0": rng.uniform(-0.4, 0.4),
                    "p0": _signed(rng, 0.15, 0.4)},
        "horizon": RICCATI_HORIZON,
        "step": RICCATI_STEP,
        "integrator": "rk4",
        "checks": checks,
        "outputs": _outputs(),
    }


def exact_pole_time(x0, p0):
    """First pole of x(t) = tan(arctan x0 + p0 (1 + x0^2) t) for t > 0."""
    s = 1.0 if p0 > 0 else -1.0
    return (math.pi / 2.0 - s * math.atan(x0)) / (abs(p0) * (1.0 + x0 * x0))


def _pole_scenario(rng):
    t_star = rng.uniform(*POLE_T_RANGE)
    x0 = rng.uniform(-1.0, 1.0)
    s = rng.choice((-1.0, 1.0))
    p0 = s * (math.pi / 2.0 - s * math.atan(x0)) / (t_star * (1.0 + x0 * x0))
    scn = {
        "group": "sl2r",
        "problem": "riccati",
        "inertia": {"diag": list(EXACT_INERTIA)},
        "connection": list(EXACT_CONNECTION),
        "initial": {"x0": x0, "p0": p0},
        "horizon": POLE_HORIZON,
        "step": POLE_STEP,
        "integrator": "rk4",
        "checks": RICCATI_CHECKS + ["closed_loop_audit"],
        "outputs": _outputs(),
    }
    return scn, exact_pole_time(x0, p0)


def _n_samples(horizon, step):
    return int(horizon / step + 1e-9) + 1


def _make_op(rng, kind, group, name):
    if kind == "rigid":
        scn = _rigid_scenario(rng, group, RIGID_HORIZON, RIGID_STEP)
        return Op("rigid", "verify", name, scn,
                  _n_samples(RIGID_HORIZON, RIGID_STEP))
    if kind == "riccati":
        scn = _riccati_scenario(rng, group)
        return Op("riccati", "verify", name, scn,
                  _n_samples(RICCATI_HORIZON, RICCATI_STEP))
    if kind == "pole":
        scn, t_star = _pole_scenario(rng)
        # a correct run stops at the pole: the samples before t* count
        return Op("pole", "verify", name, scn,
                  _n_samples(t_star, POLE_STEP), t_star=t_star)
    if kind == "sweep":
        scn = _rigid_scenario(rng, group, SWEEP_HORIZON, SWEEP_STEP)
        values = set()
        while len(values) < SWEEP_VALUES:
            values.add("%.4f" % _signed(rng, *RIGID_XI_RANGE))
        values = sorted(values, key=float)
        return Op("sweep", "sweep", name, scn,
                  len(values) * _n_samples(SWEEP_HORIZON, SWEEP_STEP),
                  sweep_values=values)
    raise ValueError(f"unknown op kind {kind!r}")


def generate(workload, seed, directory):
    """Write the workload's scenario files for `seed` into `directory` and
    return its op cycle.  The same seed writes the same bytes."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"lsb-lab-bench/{workload}/{seed}")
    os.makedirs(directory, exist_ok=True)
    ops = []
    for b in range(BLOCKS):
        for slot, entry in enumerate(spec.block):
            kind, groups = entry.split(":")
            choices = groups.split("/")
            group = choices[b % len(choices)]
            name = f"scn_{b:02d}_{slot}_{kind}_{group}.json"
            op = _make_op(rng, kind, group, name)
            with open(os.path.join(directory, name), "w",
                      encoding="utf-8", newline="\n") as f:
                f.write(json.dumps(op.scenario, sort_keys=True, indent=1)
                        + "\n")
            ops.append(op)
    return ops
