"""The benchmark's self-test runs against the sources in src/, so a change to
the library calls it makes (a TreeMap from a dict, report, bourgain_embed,
the CLI jobs and their checks) fails here and not only in a benchmark run.
It writes only under the ignored .perfbench/ directory."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "\n0 broken expectation(s)\n" in proc.stdout, proc.stdout
