"""The narrative demo scripts run to completion against the library."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos"))
               if f.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
