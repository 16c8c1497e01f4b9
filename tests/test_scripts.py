"""The example scripts run to completion against the package sources."""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("args", [
    ["scripts/superposition_demo.py"],
    ["scripts/hj_relations_sweep.py", "--samples", "2"],
    ["scripts/packet_trajectories.py"],
], ids=lambda args: os.path.basename(args[0]))
def test_script_exits_0(args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
