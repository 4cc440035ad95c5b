"""togglekit runs on the standard library alone.

A fresh interpreter imports the CLI; every module that import loads must
be part of togglekit or of the standard library, so an optional
dependency can only ever be imported lazily, inside the command that
needs it.
"""

import os
import subprocess
import sys
from pathlib import Path

import togglekit

SRC = str(Path(togglekit.__file__).resolve().parents[1])
PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import togglekit.cli\n"
    "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
)


def test_cli_import_loads_only_togglekit_and_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    loaded = run.stdout.split()
    assert "togglekit.cli" in loaded
    foreign = [
        name for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names | {"togglekit"}
    ]
    assert foreign == []
