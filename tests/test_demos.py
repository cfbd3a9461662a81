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


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, path], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs_cleanly(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


def test_se3_demo_checks_hold():
    [path] = [p for p in DEMOS if os.path.basename(p) == "demo_se3_basics.py"]
    lines = run_demo(path).stdout.splitlines()
    for line in ["is_rigid: True", "T * exp(-xi) == I: True",
                 "inverse(T) == exp(-xi): True",
                 "apply keeps the third component at one: 1.0"]:
        assert line in lines
