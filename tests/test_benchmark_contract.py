"""The names the benchmark in perfbench/ relies on still resolve.

perfbench/tracer.py wraps togglekit functions by module and name, and
perfbench/run.py reads kernels.HAVE_COMPILED, kernels.kernel_for and
rational.BACKEND for its environment record.  This test does what
perfbench/child.py does, so a traced function that is renamed, deleted
or held out of the tracer's reach fails here, not only in a long traced
benchmark run.  It runs in a fresh process because inside pytest the
test modules' own imports of the traced functions count as unwrapped.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json

import togglekit.cli
from tracer import Tracer

unwrapped = Tracer().install()
from togglekit import kernels, rational

print(json.dumps({
    "unwrapped": unwrapped,
    "have_compiled": kernels.HAVE_COMPILED,
    "kernel": kernels.kernel_for(64).__name__,
    "backend": rational.BACKEND,
}))
"""


def test_tracer_wraps_every_target_and_environment_names_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["unwrapped"] == []
    assert probe["have_compiled"] is False
    assert probe["kernel"] == "togglekit.kernels.pybitops"
    assert probe["backend"] == "fractions"
