"""togglekit runs on the standard library alone, and its public face holds.

A fresh interpreter imports the CLI; every module that import loads must
be part of togglekit or of the standard library, so an optional
dependency can only ever be imported lazily, inside the command that
needs it.  The package exports exactly its __all__, and the README's
library example prints what its comment says.  Only dynamics drives an
integer lane: no other module imports its private names or calls a
lane's enter, stage or leave.
"""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import togglekit

PACKAGE = Path(togglekit.__file__).resolve().parent
SRC = str(PACKAGE.parent)
LANE_PARTS = {"enter", "stage", "leave"}
README = Path(__file__).resolve().parents[1] / "README.md"
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


def test_star_import_gives_exactly_all_once():
    exported = {}
    exec("from togglekit import *", exported)
    del exported["__builtins__"]
    assert len(set(togglekit.__all__)) == len(togglekit.__all__)
    assert sorted(exported) == sorted(togglekit.__all__)


def test_readme_library_example_prints_what_its_comments_say():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    said = [line.partition("#")[2].strip() for line in block.splitlines() if "print(" in line]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), {})
    assert printed.getvalue().splitlines() == said


def lane_crossings(path):
    'Private names a module imports from dynamics, and the lane parts it calls.'
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("dynamics"):
            found += [f"imports {a.name}" for a in node.names if a.name.startswith("_")]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in LANE_PARTS
        ):
            found.append(f"line {node.lineno} calls .{node.func.attr}(")
    return found


def test_only_dynamics_drives_a_lane():
    crossings = {
        path.relative_to(PACKAGE).as_posix(): lane_crossings(path)
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != PACKAGE / "dynamics.py"
    }
    assert "homomesy.py" in crossings
    assert {name: found for name, found in crossings.items() if found} == {}
