#!/usr/bin/env python3
"""schottky-gauge benchmark.

One workload per process, one client, one thread, closed loop:

    python3 perfbench/run.py --workload certify-all --seed 1 --seconds 35 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics of
a traced run (``--trace 1``), one human-readable line each, and as its
last line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --all --seed 1 --seconds 35 --runs 10

runs every workload ``--runs`` times with successive seeds, one fresh
process after another, and prints each metric's median and spread (the
quartile distance as a share of the median) with the machine it ran on.
Run from the root of a source checkout; the program is imported from
``src/``.
"""

from __future__ import annotations

import os

# one thread: set before numpy is first imported (with the program)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"interval.{op}_ns": "ns" for op in spans.INTERVAL_OPS},
    "interval.ops_per_cell": "count",
    "certify.cells": "count",
    "certify.CF-A.cells": "count",
    "certify.vacuous_cells": "count",
    "certify.cells_per_s": "1/s",
    "certify.slack_us": "us",
    "certify.slack_ms": "ms",
    "certify.closed_frac": "ratio",
    "certify.engine_self_ms": "ms",
    "certify.CF-A.ms": "ms",
    "lattice.reduce_ms": "ms",
    "lattice.enumerate_ms": "ms",
    "lattice.candidates_per_round": "count",
    "lattice.rounds_per_call": "count",
    "lattice.witness_yield": "ratio",
    "lattice.minima_self_ms": "ms",
    "lattice.radius_ms": "ms",
    "lattice.validate_ms": "ms",
    "lattice.load_gram_ms": "ms",
    "bounds.exclusion_self_ms": "ms",
    "cli.self_ms": "ms",
    "cli.render_ms": "ms",
    "bench.op_self_ms": "ms",
    "trace.op_ms": "ms",
    "trace.overhead_frac": "ratio",
}

SETUP_PROBES = 8          # fresh processes that repeat set-up, besides the run's own
TRACE_LOOP_SHARE = 0.85   # of --seconds; the rest is the interval loop and counts
P90_MIN_OPS = 100         # p90 needs ten samples beyond it
# printed, not in BENCHMARK.json: see the README for why
REPORTED_ONLY = ("op_samples", "failed_frac", "op_p50_ms", "op_p90_ms")


def import_program():
    """Imports the program from ``src/``; returns (modules, seconds)."""
    init = SRC / "schottky_gauge" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init.relative_to(ROOT)} not found; "
                         "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    cli = importlib.import_module("schottky_gauge.cli")
    seconds = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != init.parent:
        raise SystemExit(f"perfbench: imported {cli.__file__}, not {init.parent}")
    pkg = "schottky_gauge."
    mods = types.SimpleNamespace(
        cli=cli, **{m: sys.modules[pkg + m]
                    for m in ("lattice", "bounds", "certify", "interval")})
    return mods, seconds


def _timed(op, item):
    """Runs one op; returns (ok, result, seconds). Any exception, or a
    usage error's SystemExit, fails the op."""
    t0 = time.perf_counter()
    try:
        result = op(item)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted as failed
        print(f"op failed: {exc!r}", file=sys.stderr)
        return False, None, time.perf_counter() - t0
    return True, result, time.perf_counter() - t0


class Run:
    """One workload in this process: inputs, op, reference, counters."""

    def __init__(self, workload: str, seed: int, work_dir: Path, write: bool = True):
        self.workload = workload
        self.inputs = wl.Inputs(workload, str(work_dir), write=write)
        self.order = wl.order(workload, seed)
        self.expected = None
        self.attempted = 0
        self.failed = 0
        self._next = 0

    def load_reference(self) -> None:
        ref = wl.load_reference(REFERENCE)[self.workload]
        if self.inputs.pool and wl.pool_digest(self.inputs.pool) != ref["digest"]:
            raise SystemExit("perfbench: generated inputs differ from the "
                             "pool the reference was made from")
        self.expected = ref["expected"]

    def next_index(self) -> int:
        k = self.order[self._next % len(self.order)]
        self._next += 1
        return k

    def warm_up(self, op) -> float:
        """Runs the warm-up ops, which no metric but set-up time counts;
        returns their seconds."""
        t0 = time.perf_counter()
        for _ in range(wl.WARMUP_OPS[self.workload]):
            op(self.inputs.item(self.next_index()))
        return time.perf_counter() - t0

    def record(self, ok: bool, result, k: int) -> None:
        self.attempted += 1
        if not (ok and wl.check(self.workload, result, self.expected[k])):
            self.failed += 1

    def measure(self, op, seconds: float) -> list[float]:
        """Closed loop for ``seconds``; returns per-op latencies."""
        lat = []
        end = time.perf_counter() + seconds
        while not lat or time.perf_counter() < end:
            k = self.next_index()
            ok, result, dt = _timed(op, self.inputs.item(k))
            lat.append(dt)
            self.record(ok, result, k)
        return lat


def _probe_setup(args, work_dir: Path) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--work-dir", str(work_dir)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=120).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def end_to_end(run: Run, mods, import_s: float, args, work_dir: Path) -> dict:
    op = wl.make_op(run.workload, mods)
    setups = [import_s + run.warm_up(op)]
    setups += [_probe_setup(args, work_dir) for _ in range(SETUP_PROBES)]
    lat = run.measure(op, args.seconds)
    n = len(lat)
    print(f"{'op_samples':24s} {n:>14d} count")
    print(f"{'failed_frac':24s} {run.failed / run.attempted:>14.6g} ratio")
    print(f"{'op_p50_ms':24s} {1e3 * statistics.median(lat):>14.6g} ms (n={n})")
    if n >= P90_MIN_OPS:
        p90 = 1e3 * statistics.quantiles(lat, n=10)[8]
        print(f"{'op_p90_ms':24s} {p90:>14.6g} ms (n={n})")
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run, mods, args) -> dict:
    """Untraced and traced ops alternate on the same inputs (which goes
    first alternates too), so their ratio gives the tracing overhead."""
    op = wl.make_op(run.workload, mods)
    run.warm_up(op)
    tracer = spans.Tracer(mods)
    plain = traced = 0.0
    end = time.perf_counter() + TRACE_LOOP_SHARE * args.seconds
    i = 0
    while i == 0 or time.perf_counter() < end:
        k = run.next_index()
        item = run.inputs.item(k)
        pair = {}
        for use_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if use_trace:
                ok, out, _ = _timed(lambda x: tracer.run_op(op, x), item)
                result, seconds = out if ok else (None, None)
            else:
                ok, result, seconds = _timed(op, item)
            run.record(ok, result, k)
            if ok:
                pair[use_trace] = seconds
        if len(pair) == 2:
            plain += pair[False]
            traced += pair[True]
        i += 1
    silent = tracer.silent(run.workload)
    if silent:
        raise SystemExit(f"perfbench: wrapped spans never fired: {silent}")
    m = tracer.layer_metrics()
    m["trace.overhead_frac"] = traced / plain - 1.0 if plain else 0.0
    m["interval.ops_per_cell"] = 0.0
    if run.workload == "certify-all":
        inits, result = spans.count_interval_inits(mods.interval, lambda: op(None))
        run.record(True, result, 0)
        cells = sum(r["cells_processed"] for r in json.loads(result[1]))
        m["interval.ops_per_cell"] = inits / cells
    m.update(spans.interval_ns(mods.interval))
    if m.keys() != PER_LAYER.keys():
        raise SystemExit(f"perfbench: metric set mismatch: "
                         f"{sorted(m.keys() ^ PER_LAYER.keys())}")
    return m


def run_one(args) -> int:
    mods, import_s = import_program()
    work_dir = Path(args.work_dir) if args.work_dir else \
        WORK / f"{args.workload}-{os.getpid()}"
    if args.probe:
        run = Run(args.workload, args.seed, work_dir, write=False)
        setup = import_s + run.warm_up(wl.make_op(args.workload, mods))
        print(json.dumps({"setup_s": setup}))
        return 0
    run = Run(args.workload, args.seed, work_dir)
    try:
        run.load_reference()
        if args.trace:
            values, units = per_layer(run, mods, args), PER_LAYER
        else:
            values, units = end_to_end(run, mods, import_s, args, work_dir), END_TO_END
    finally:
        run.inputs.cleanup()
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for name, unit in units.items():
        print(f"{name:24s} {values[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def environment() -> dict:
    """The machine and software a summary was measured on."""
    import platform

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "commit": commit}


def _spread(values: list[float]) -> dict:
    """Median and the quartile distance as a share of it."""
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "iqr_frac": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "iqr_frac": (q3 - q1) / med if med else 0.0}


def run_all(args) -> int:
    """Every workload, ``--runs`` seeds each, every run in its own fresh
    process, one after another; prints each metric's median and spread."""
    seeds = [args.seed + i for i in range(args.runs)]
    summary = {"environment": environment(), "seeds": seeds,
               "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    status = 0
    for workload in wl.WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            for line in lines[:-1]:   # figures printed but not in BENCHMARK.json
                name, value, unit = line.split()[:3]
                if name in REPORTED_ONLY:
                    values.setdefault(name, []).append(float(value))
                    units[name] = unit
            print(f"== {workload} seed {seed}: " + ", ".join(
                f"{name} {m['value']:.6g}" for name, m in result["metrics"].items()
                if args.trace == 0), flush=True)
        if failed:
            status = 1
        stats = {name: {**_spread(v), "unit": units[name], "values": v}
                 for name, v in values.items()}
        summary["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted if attempted else None,
            "metrics": stats}
        print(f"{workload}: attempted {attempted}, failed {failed}")
        for name, st in stats.items():
            print(f"   {name:28s} {st['median']:>14.6g} {st['unit']:6s} "
                  f"spread {st['iqr_frac']:.4f}")
    for key, value in summary["environment"].items():
        print(f"{key:8s} {value}")
    WORK.mkdir(exist_ok=True)
    out = WORK / f"summary-trace{args.trace}.json"
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"summary written to {out.relative_to(ROOT)}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=wl.WORKLOADS)
    p.add_argument("--all", action="store_true",
                   help="run every workload, each in a fresh process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=1,
                   help="with --all: runs per workload, seeds --seed, --seed+1, ...")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
