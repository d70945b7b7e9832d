"""Outside-in span recorder for the traced run.

The tracer replaces public functions of the program's modules (module
attributes, which the program looks up at call time) with wrappers that
record one span per call, and wraps every certification task's
``slack_iv`` through a wrapped copy of ``certify.FAMILIES``, the registry
the CLI reads. Spans of one op share an op id and stay in memory until the
run ends; self times are derived from them then.

A layer's self time is its span's duration minus that of its direct
children, so the self times of all spans of an op add up to the op's
duration exactly.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
import timeit
from collections import Counter

ROOT = "op"
SLACK = "certify.slack_iv"

WRAPPED = (
    ("cli", "main"),
    ("cli", "render"),
    ("lattice", "load_gram"),
    ("lattice", "validate"),
    ("lattice", "successive_minima"),
    ("lattice", "enumerate_below"),
    ("lattice", "reduce"),
    ("lattice", "minkowski_radius"),
    ("bounds", "jacobian_exclusion"),
    ("certify", "certify"),
)

# span name -> metric holding its self time, in ms per op
SELF_METRICS = {
    ROOT: "bench.op_self_ms",
    "cli.main": "cli.self_ms",
    "cli.render": "cli.render_ms",
    "certify.certify": "certify.engine_self_ms",
    SLACK: "certify.slack_ms",
    "lattice.load_gram": "lattice.load_gram_ms",
    "lattice.validate": "lattice.validate_ms",
    "lattice.successive_minima": "lattice.minima_self_ms",
    "lattice.enumerate_below": "lattice.enumerate_ms",
    "lattice.reduce": "lattice.reduce_ms",
    "lattice.minkowski_radius": "lattice.radius_ms",
    "bounds.jacobian_exclusion": "bounds.exclusion_self_ms",
}

_LATTICE_CORE = {"lattice.validate", "lattice.successive_minima",
                 "lattice.enumerate_below", "lattice.reduce",
                 "lattice.minkowski_radius"}

# Spans each workload's layers must fire. A name that stays silent means
# the program stopped calling it through its module attribute, which would
# blind the trace, so the run fails instead of reporting zeros. On
# certify-all every task's slack_iv must fire as well.
EXPECTED = {
    "certify-all": {"cli.main", "cli.render", "certify.certify"},
    "minima-small": _LATTICE_CORE,
    "exclude-g5": _LATTICE_CORE | {"cli.main", "cli.render",
                                   "lattice.load_gram",
                                   "bounds.jacobian_exclusion"},
}

INTERVAL_OPS = {
    "add": "a + b",
    "mul": "a * b",
    "div": "a / b",
    "sq": "a.sq()",
    "log": "a.log()",
    "acosh": "a.acosh()",
    "sinhc": "a.sinhc()",
    "asin": "u.asin()",
    "cosh": "a.cosh()",
}


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self, modules):
        self.spans: list[list] = []   # [op id, name, parent index, start, end]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = 0
        self._saved: list[tuple] = []
        self._patches = [
            (getattr(modules, mod), attr,
             self._wrap(f"{mod}.{attr}", getattr(getattr(modules, mod), attr),
                        self._ON_RESULT.get(f"{mod}.{attr}")))
            for mod, attr in WRAPPED
        ]
        cert = modules.certify
        self.slack_keys = []
        families = []
        for f in cert.FAMILIES:
            tasks = []
            for t in f.tasks:
                key = f"{SLACK}[{f.id}/{t.name}]"
                self.slack_keys.append(key)
                tasks.append(dataclasses.replace(t, slack_iv=self._wrap(
                    SLACK, t.slack_iv, Tracer._on_slack, key=key)))
            families.append(dataclasses.replace(f, tasks=tuple(tasks)))
        self._patches.append((cert, "FAMILIES", tuple(families)))

    # -- boundary counts ----------------------------------------------

    def _on_certify(self, report, span):
        span.append(report.family)
        self.counts["certify.cells"] += report.cells_processed
        self.counts["certify.vacuous_cells"] += report.vacuous_cells
        self.counts[f"certify.{report.family}.cells"] += report.cells_processed

    def _on_slack(self, result, _span):
        if result.lo > 0.0:
            self.counts["certify.closed"] += 1

    def _on_enumerate(self, result, _span):
        self.counts["lattice.candidates"] += len(result)

    def _on_minima(self, result, _span):
        self.counts["lattice.witnesses"] += len(result.witnesses)

    _ON_RESULT = {
        "certify.certify": _on_certify,
        "lattice.enumerate_below": _on_enumerate,
        "lattice.successive_minima": _on_minima,
    }

    # -- recording ----------------------------------------------------

    def _wrap(self, name, fn, on_result=None, key=None):
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter
        key = key or name
        tracer = self

        def wrapper(*args, **kwargs):
            calls[key] += 1
            span = [tracer._op, name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if on_result is not None:
                on_result(tracer, result, span)
            return result

        return wrapper

    def install(self) -> None:
        for obj, attr, new in self._patches:
            self._saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, old = self._saved.pop()
            setattr(obj, attr, old)

    def run_op(self, op, item):
        """Runs one op inside a root span; returns (result, seconds)."""
        self._op += 1
        first = len(self.spans)
        root = self._wrap(ROOT, op)
        self.install()
        try:
            result = root(item)
        finally:
            self.uninstall()
        span = self.spans[first]
        return result, span[4] - span[3]

    # -- reporting ----------------------------------------------------

    def silent(self, workload: str) -> list[str]:
        """Expected spans of this workload that never fired."""
        missing = sorted(n for n in EXPECTED[workload] if not self.calls[n])
        if workload == "certify-all":
            missing += [k for k in self.slack_keys if not self.calls[k]]
        return missing

    def layer_metrics(self) -> dict[str, float]:
        """Per-op self times and boundary ratios over every traced op."""
        spans, n_ops = self.spans, self._op
        dur = [s[4] - s[3] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s[2] >= 0:
                child[s[2]] += d
        self_t: Counter = Counter()
        total: Counter = Counter()
        n: Counter = Counter()
        cfa = 0.0
        for s, d, c in zip(spans, dur, child):
            self_t[s[1]] += d - c
            total[s[1]] += d
            n[s[1]] += 1
            if s[1] == "certify.certify" and s[5:] == ["CF-A"]:
                cfa += d
        unknown = set(self_t) - set(SELF_METRICS)
        if unknown:
            raise RuntimeError(f"spans without a self-time metric: {unknown}")
        if abs(sum(self_t.values()) - total[ROOT]) > 1e-9 * total[ROOT]:
            raise RuntimeError("layer self times do not add up to op time")

        def per_op(x):
            return x / n_ops

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        m = {metric: 1e3 * per_op(self_t[name])
             for name, metric in SELF_METRICS.items()}
        m["trace.op_ms"] = 1e3 * per_op(total[ROOT])
        m["certify.cells"] = per_op(c["certify.cells"])
        m["certify.CF-A.cells"] = per_op(c["certify.CF-A.cells"])
        m["certify.vacuous_cells"] = per_op(c["certify.vacuous_cells"])
        m["certify.cells_per_s"] = ratio(c["certify.cells"], total["certify.certify"])
        m["certify.slack_us"] = 1e6 * ratio(self_t[SLACK], n[SLACK])
        m["certify.closed_frac"] = ratio(c["certify.closed"], n[SLACK])
        m["certify.CF-A.ms"] = 1e3 * per_op(cfa)
        rounds = n["lattice.enumerate_below"]
        m["lattice.candidates_per_round"] = ratio(c["lattice.candidates"], rounds)
        m["lattice.rounds_per_call"] = ratio(rounds, n["lattice.successive_minima"])
        m["lattice.witness_yield"] = ratio(c["lattice.witnesses"],
                                           c["lattice.candidates"])
        return m


def count_interval_inits(interval, fn):
    """Calls ``fn()`` with ``Interval.__init__`` counted; returns
    (constructions, result)."""
    cls = interval.Interval
    orig = cls.__init__
    n = 0

    def counting(self, *args, **kwargs):
        nonlocal n
        n += 1
        orig(self, *args, **kwargs)

    cls.__init__ = counting
    try:
        result = fn()
    finally:
        cls.__init__ = orig
    return n, result


def interval_ns(interval, repeats: int = 5, number: int = 20000) -> dict[str, float]:
    """ns per primitive on fixed operands: median over ``repeats`` loops."""
    iv = interval.Interval
    env = {"a": iv(1.25, 1.5), "b": iv(2.0, 2.25), "u": iv(0.25, 0.5)}
    out = {}
    for name, stmt in INTERVAL_OPS.items():
        timer = timeit.Timer(stmt, globals=env)
        times = timer.repeat(repeat=repeats, number=number)
        out[f"interval.{name}_ns"] = 1e9 * statistics.median(times) / number
    return out
