"""Replay every recorded command and compare what it prints.

Run from a checkout, on the standard library alone:

    python tests/transcript.py

``tests/data/transcript.json`` is an ordered list of records ``{argv,
exit, stdout, stderr, why}``: the arguments of one ``schottky-gauge``
command, its exit code, its exact stdout and stderr, and why it is
recorded.  The script runs each record in a fresh
``python -m schottky_gauge.cli`` process from the checkout's root, with
``src/`` on ``PYTHONPATH``, and prints a unified diff for every record
whose exit code or output differs.  A record without ``stderr`` does not
compare it: argparse wraps the usage text of its exit-2 message
differently from Python 3.13 on.  The exit status is 1 when any record
differs, else 0.

``tests/test_reach.py`` replays the same records in one interpreter
under pytest.  pytest does not collect this file.
"""

import difflib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PATH = ROOT / "tests" / "data" / "transcript.json"


def load() -> list[dict]:
    """The records, in order."""
    return json.loads(PATH.read_text(encoding="utf-8"))


def diff(record: dict, code: int, stdout: str, stderr: str) -> str:
    """A unified diff of ``record`` against a replay's exit code and
    output, over the keys the record holds; empty when they agree."""
    seen = {"exit": code, "stdout": stdout, "stderr": stderr}
    lines = []
    for key, value in seen.items():
        if key in record and record[key] != value:
            lines += difflib.unified_diff(
                str(record[key]).splitlines(keepends=True),
                str(value).splitlines(keepends=True),
                f"recorded {key}", f"replayed {key}")
    # a last line without its newline still ends its own line of the diff
    return "".join(line if line.endswith("\n") else line + "\n" for line in lines)


def replay(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``argv`` in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-m", "schottky_gauge.cli", *argv], cwd=ROOT,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    records = load()
    differ = 0
    for record in records:
        found = diff(record, *replay(record["argv"]))
        if found:
            differ += 1
            print(f"DIFFERS {' '.join(record['argv'])} ({record['why']})\n{found}",
                  flush=True)
    print(f"{len(records)} records, {differ} differ")
    return int(differ > 0)


if __name__ == "__main__":
    sys.exit(main())
