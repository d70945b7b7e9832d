"""The package runs without numpy, which is a test-only dependency.

Each command runs in a fresh interpreter where ``import numpy`` fails
(``sys.modules["numpy"] = None``), and must print what an in-process run
prints.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from schottky_gauge import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DET1 = str(ROOT / "tests" / "data" / "det1.json")

BLOCKED = ("import sys; sys.modules['numpy'] = None; "
           "from schottky_gauge import cli; sys.exit(cli.main(sys.argv[1:]))")


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.mark.parametrize("argv", [
    ["minima", "{file}"],
    ["minima", "{file}", "--format", "json"],
    ["exclude", "{file}", "--format", "json"],
    ["certify", "--families", "CF-G"],
], ids=" ".join)
def test_commands_run_without_numpy(capsys, argv):
    argv = [a.replace("{file}", DET1) for a in argv]
    proc = _python("-c", BLOCKED, *argv)
    assert proc.returncode == 0, proc.stderr
    assert cli.main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_import_does_not_load_numpy():
    proc = _python("-c", "import sys, schottky_gauge.cli; "
                         "print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
