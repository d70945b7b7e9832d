"""Every recorded command prints its recorded bytes, and every function in
``src/`` is entered by one.

One fresh interpreter installs ``sys.setprofile`` before it imports the
package, so functions called at import time count, and then replays,
through ``cli.main``, every record of ``tests/data/transcript.json`` (see
``tests/transcript.py``). ``test_record`` compares each record's exit code,
stdout and stderr with the replay's, byte for byte. Each ``def`` in
``src/schottky_gauge/*.py``, nested ones included, must have been entered,
or be on ``ALLOWED`` with a one-line reason. A code object is matched to
its ``def`` by file and ``co_firstlineno``, which is the line of the first
decorator of a decorated function and the ``def`` line otherwise
(``co_qualname`` needs Python 3.11).

Code that no command reaches is deleted, or moved to ``tests/`` when only
tests use it; so ``ALLOWED`` names what must stay although no command
enters it, and an entry that a command does enter fails the test too.

The replay itself fails, and with it every test here, when numpy, a
test-only dependency, is loaded after the last record: the package runs on
the standard library alone.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from transcript import ROOT, diff, load

SRC = ROOT / "src"
PACKAGE = SRC / "schottky_gauge"

RECORDS = load()

# "module.qualified.name": "why no command enters it"
ALLOWED = {}

# reads a JSON list of argvs; prints the exit code, stdout and stderr of
# each, and the (file, first line) of every code object entered from the
# package import on; fails when the import or any command has loaded
# numpy, a test-only dependency, even behind a guarded import
RUNNER = """
import contextlib, io, json, sys
entered = set()
def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)
sys.setprofile(profile)
from schottky_gauge import cli
outputs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    outputs.append((code, out.getvalue(), err.getvalue()))
sys.setprofile(None)
assert "numpy" not in sys.modules, "a command loaded numpy"
print(json.dumps([outputs, [(c.co_filename, c.co_firstlineno) for c in entered]]))
"""


@pytest.fixture(scope="module")
def replayed():
    """The replay's (exit, stdout, stderr) per record, and the (file, first
    line) of every code object it entered."""
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps([r["argv"] for r in RECORDS])],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    outputs, entered = json.loads(proc.stdout)
    return outputs, {(str(Path(f).resolve()), line) for f, line in entered}


@pytest.mark.parametrize("index", range(len(RECORDS)),
                         ids=[" ".join(r["argv"]) for r in RECORDS])
def test_record(replayed, index):
    outputs, _ = replayed
    found = diff(RECORDS[index], *outputs[index])
    assert not found, f"{RECORDS[index]['why']}\n{found}"


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


def test_every_function_is_entered_by_a_command(replayed):
    _, entered = replayed
    missed = [name for name, path, lines in _defs()
              if not any((path, line) in entered for line in lines)]
    assert sorted(missed) == sorted(ALLOWED)
