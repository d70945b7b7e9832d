#!/usr/bin/env python3
"""Freezes the expected outputs the benchmark checks every op against.

    python3 perfbench/make_reference.py

runs every pool item of every workload once through the program as it
stands and writes ``perfbench/reference.json``. Run it only on a commit
whose outputs are trusted: afterwards, a change that moves a minimum, a
verdict, a certification status or a certified slack by more than 1e-9
relative fails the benchmark's correctness check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run as bench
import workloads as wl


def main() -> int:
    mods, _ = bench.import_program()
    ref = {}
    for workload in wl.WORKLOADS:
        work_dir = bench.WORK / f"reference-{os.getpid()}"
        inputs = wl.Inputs(workload, str(work_dir))
        try:
            op = wl.make_op(workload, mods)
            n = len(inputs.files) or len(inputs.pool) or 1
            expected = [wl.summarize(workload, op(inputs.item(k))) for k in range(n)]
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        ref[workload] = {"digest": wl.pool_digest(inputs.pool) if inputs.pool else None,
                         "expected": expected}
        print(f"{workload}: {n} expected outputs", file=sys.stderr)
    with open(bench.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
