"""Fixed reference process: the yardstick for the host's current speed.

run.py runs this script in a fresh interpreter right before every timed CLI
process and every timed import, and divides each wall time by the wall time
of the reference run next to it (see NOTES.md, "Host-speed scaling").  It
does the same kinds of work as a CLI op, in about a third of the time:
interpreter start-up, the numpy and scipy imports, a pure-Python loop, and
an RK4 rigid-body integration on 3-vectors with one 3x3 ``scipy.linalg.expm``
per step.  It never imports lsb_lab, so no change to the program changes its
cost.  It prints a checksum so that none of the work can be skipped.
"""

import numpy as np
import scipy.linalg

PY_ITERATIONS = 1_000_000
RK4_STEPS = 1000
STEP = 1e-3
INERTIA = np.array([1.0, 2.0, 3.0])


def _python_loop():
    s = 0
    for i in range(PY_ITERATIONS):
        s += i * i % 7
    return s


def _rhs(m):
    return np.cross(m, m / INERTIA)


def _rigid_body():
    m = np.array([0.3, 0.4, 0.5])
    g = np.eye(3)
    h = STEP
    for _ in range(RK4_STEPS):
        k1 = _rhs(m)
        k2 = _rhs(m + h / 2 * k1)
        k3 = _rhs(m + h / 2 * k2)
        k4 = _rhs(m + h * k3)
        m = m + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        w = m / INERTIA
        g = g @ scipy.linalg.expm(h * np.array([[0.0, -w[2], w[1]],
                                                [w[2], 0.0, -w[0]],
                                                [-w[1], w[0], 0.0]]))
    return float(m @ m) + float(np.trace(g))


if __name__ == "__main__":
    print(_python_loop(), repr(_rigid_body()))
