"""Tests of the benchmark itself: reference, correctness check, tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import bruteforce  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return bench.import_program()[0]


@pytest.fixture(scope="module")
def reference():
    return wl.load_reference(bench.REFERENCE)


def test_reference_covers_every_pool_item(reference):
    assert len(reference["certify-all"]["expected"]) == 1
    for workload, (_, size) in wl.POOLS.items():
        entry = reference[workload]
        assert len(entry["expected"]) == size
        assert entry["digest"] == wl.pool_digest(wl.make_pool(workload))


def test_minima_reference_matches_brute_force(reference):
    pool = wl.make_pool("minima-small")
    expected = reference["minima-small"]["expected"]
    for k in random.Random(0).sample(range(len(pool)), 64):
        want = bruteforce.successive_minima(pool[k])
        assert wl.matches("minima-small", want, expected[k]), k


def test_corrupted_reference_value_fails_its_ops(mods, tmp_path):
    op = wl.make_op("minima-small", mods)
    clean = bench.Run("minima-small", 3, tmp_path)
    clean.load_reference()
    clean.measure(op, 0.2)
    assert clean.attempted > 0 and clean.failed == 0

    run = bench.Run("minima-small", 3, tmp_path)
    run.load_reference()
    bad = run.order[0]
    run.expected = copy.deepcopy(run.expected)
    run.expected[bad][0] *= 1.0 + 1e-6
    run.measure(op, 0.2)
    hits = sum(run.order[i % len(run.order)] == bad for i in range(run.attempted))
    assert run.failed == hits >= 1
    assert run.failed / run.attempted > 0


def test_check_tolerances_and_statuses(reference):
    cert = reference["certify-all"]["expected"][0]
    assert wl.matches("certify-all", cert, cert)
    moved = copy.deepcopy(cert)
    moved["CF-A"]["min_slack_lo"] *= 1.0 + 1e-12   # a few-ulp widening passes
    assert wl.matches("certify-all", moved, cert)
    moved["CF-A"]["min_slack_lo"] *= 1.0 + 1e-8
    assert not wl.matches("certify-all", moved, cert)
    flipped = copy.deepcopy(cert)
    flipped["CF-B"]["status"] = "Undecided"
    assert not wl.matches("certify-all", flipped, cert)
    tail = copy.deepcopy(cert)
    tail["CF-C"]["tail_status"] = "Checked-to-bound"
    assert not wl.matches("certify-all", tail, cert)

    ex = reference["exclude-g5"]["expected"][0]
    assert wl.matches("exclude-g5", ex, ex)
    assert not wl.matches("exclude-g5", {**ex, "verdict": "NotJacobian"}, ex)
    assert not wl.check("exclude-g5", (3, ""), ex)  # non-zero exit fails


def test_spans_fire_and_self_times_add_up(mods, tmp_path):
    run = bench.Run("exclude-g5", 1, tmp_path)
    run.load_reference()
    op = wl.make_op("exclude-g5", mods)
    tracer = spans.Tracer(mods)
    original = mods.lattice.successive_minima
    for _ in range(3):
        k = run.next_index()
        result, seconds = tracer.run_op(op, run.inputs.item(k))
        run.record(True, result, k)
        assert seconds > 0
    run.inputs.cleanup()
    assert run.failed == 0
    assert mods.lattice.successive_minima is original      # wrappers removed
    assert tracer.silent("exclude-g5") == []
    m = tracer.layer_metrics()
    self_ms = sum(m[name] for name in spans.SELF_METRICS.values())
    assert self_ms == pytest.approx(m["trace.op_ms"], rel=1e-9)
    assert m["lattice.rounds_per_call"] >= 1.0
    assert 0 < m["lattice.witness_yield"] <= 1.0


def test_locally_bound_layer_is_reported_silent(mods):
    tracer = spans.Tracer(mods)
    bound = mods.lattice.validate        # bypasses the module attribute
    tracer.run_op(lambda raw: bound(raw), [[2.0, 0.0], [0.0, 1.0]])
    assert "lattice.validate" in tracer.silent("minima-small")


def test_benchmark_json_matches_the_runner():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "minima-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
