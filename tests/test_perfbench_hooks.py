"""The repository benchmark's traced run wraps named ``repro``
functions and methods (``perfbench/layers.py``).  A rename or deletion
under ``src/`` that breaks one of those hooks must fail here, not only
when ``perfbench/run.py --trace 1`` runs."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_layer_hooks_install():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import layers; layers.install(layers.Recorder())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
