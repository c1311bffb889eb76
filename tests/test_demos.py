"""Smoke test of the quick demos: each runs to exit status 0.

Demos 04 (torus dynamics) and 05 (convergence study) each take 3 to 4 s
on a 2-vCPU machine.  Demo 05 is left out, since the acceptance suite runs
its four-level version; demo 04 also shows that the writers make their own
output directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = ("01_moving_surfaces.py", "02_interpolation_orders.py",
               "03_energy_decay.py", "04_torus_dynamics.py")


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo, tmp_path):
    # the demos write their files to the working directory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
