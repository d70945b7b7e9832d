"""Every function in ``src/`` is entered by a command.

One fresh interpreter installs ``sys.setprofile`` before it imports the
package, so functions called at import time count, and then runs, through
``cli.main``, the commands of CI's runtime and digest steps
(``.github/workflows/tests.yml``), ``corollary --file`` included. Each
``def`` in ``src/schottky_gauge/*.py``, nested ones included, must have
been entered, or be on ``ALLOWED`` with a one-line reason. A code object
is matched to its ``def`` by file and ``co_firstlineno``, which is the
line of the first decorator of a decorated function and the ``def`` line
otherwise (``co_qualname`` needs Python 3.11).

Code that no command reaches is deleted, or moved to ``tests/`` when only
tests use it; so ``ALLOWED`` names what must stay although no command
enters it, and an entry that a command does enter fails the test too.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "schottky_gauge"

# "module.qualified.name": "why no command enters it"
ALLOWED = {}

E8 = "tests/data/e8_skew48_seed39.json"
DET1 = {"dim": 4, "entries": [2, 1, 0, 0, 1, 1, 0, 0, 0, 0, 2, 1, 0, 0, 1, 1],
        "mode": "ppav"}

# (exit code, argv): CI's runtime step, then its digest step
COMMANDS = [
    (0, ["minima", E8, "--k", "8", "--format", "json"]),
    (0, ["exclude", "{det1}", "--format", "csv"]),
    (0, ["certify", "--families", "CF-F'", "--gmax", "1000"]),
    (0, ["certify", "--families", "CF-F-prime", "--gmax", "1000"]),
    (5, ["certify", "--families", "CF-A", "--gmax", "1e300", "--budget", "20000"]),
    (3, ["certify", "--gmax", "1.7e308"]),
    (2, ["certify", "--tol", "1e-4"]),
    (5, ["certify", "--families", "CF-I", "--gmax", "1e15"]),
    (3, ["collar", "--gamma", "1500"]),
    (0, ["ypiece", "--gamma", "0.5", "--w", "0.01", "--config", "1"]),
    (0, ["corollary", "--t", "1500", "--piece", "2,1"]),
    (3, ["corollary", "--t", "1e308", "--piece", "2,1"]),
    (0, ["corollary", "--file", "tests/data/decomposition.json"]),
    *[(0, ["certify", "--families", "all", "--format", f])
      for f in ("json", "csv", "table")],
    *[(0, ["bounds", "--g", str(g)]) for g in range(2, 11)],
    *[(0, [cmd, file]) for file in ("{det1}", E8) for cmd in ("minima", "exclude")],
    (0, ["ypiece", "--gamma", "2", "--w", "1", "--config", "1"]),
    (0, ["ypiece", "--gamma", "4", "--w", "1", "--config", "2"]),
    (0, ["collar", "--gamma", "2.1", "--g", "2"]),
    (0, ["corollary", "--t", "1", "--piece", "2,1"]),
]

# reads a JSON list of argvs; prints their exit codes and the (file, first
# line) of every code object entered from the package import on
RUNNER = """
import contextlib, io, json, sys
entered = set()
def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)
sys.setprofile(profile)
from schottky_gauge import cli
codes = []
for argv in json.loads(sys.argv[1]):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
print(json.dumps([codes, [(c.co_filename, c.co_firstlineno) for c in entered]]))
"""


def _defs():
    """``(qualified name, file, lines)`` of every def in the package: its
    ``def`` line and its first decorator's."""
    out = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                lines = {child.lineno, *(d.lineno for d in child.decorator_list[:1])}
                out.append((name, str(path), lines))
                visit(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return out


def test_every_function_is_entered_by_a_command(tmp_path):
    det1 = tmp_path / "det1.json"
    det1.write_text(json.dumps(DET1))
    argvs = [[str(det1) if a == "{det1}" else a for a in argv] for _, argv in COMMANDS]
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps(argvs)], cwd=ROOT,
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    codes, entered = json.loads(proc.stdout)
    assert codes == [code for code, _ in COMMANDS]
    entered = {(str(Path(f).resolve()), line) for f, line in entered}
    missed = [name for name, path, lines in _defs()
              if not any((path, line) in entered for line in lines)]
    assert sorted(missed) == sorted(ALLOWED)
