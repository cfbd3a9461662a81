"""Each demo script runs standalone: exit 0 and nothing on stderr."""

import glob
import os
import subprocess
import sys

import pytest

import flowpose

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "demos", "*.py")))
# the directory holding the flowpose package the tests import
SRC = os.path.dirname(os.path.dirname(os.path.abspath(flowpose.__file__)))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs_cleanly(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, path], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
