"""The three benchmark workloads: input pools, one op each, reference checks.

Inputs come from frozen pools, generated with Python's own ``random`` and
pure-Python arithmetic so that every platform builds the same bits. The
run's ``--seed`` shuffles the order in which the pool is cycled; the
frozen reference (``reference.json``) holds the expected output of every
pool item, so any seed can be checked.

This module imports nothing from ``schottky_gauge`` or numpy at import
time: ``run.py`` times that import as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

WORKLOADS = ("certify-all", "minima-small", "exclude-g5")

CERTIFY_ARGV = ["certify", "--families", "all", "--format", "json"]

# pool seed and size per lattice workload
POOLS = {
    "minima-small": (20261017, 1024),
    "exclude-g5": (5, 256),
}
EXCLUDE_DIM = 10

# untimed warm-up ops before measuring, counted in set-up time
WARMUP_OPS = {"certify-all": 1, "minima-small": 50, "exclude-g5": 3}

REL_TOL = 1e-9


def _gram(rng: random.Random, d: int, ridge: float) -> list[list[float]]:
    """B B^T + ridge I for a standard-normal B, in pure Python (exactly
    symmetric, identical bits on every platform)."""
    b = [[rng.gauss(0.0, 1.0) for _ in range(d)] for _ in range(d)]
    return [[sum(b[i][k] * b[j][k] for k in range(d)) + (ridge if i == j else 0.0)
             for j in range(d)] for i in range(d)]


def _det(a: list[list[float]]) -> float:
    """Determinant by Gaussian elimination with partial pivoting."""
    m = [row[:] for row in a]
    n = len(m)
    det = 1.0
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(m[r][c]))
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return det


def make_pool(workload: str) -> list[list[list[float]]]:
    """The frozen input pool of a lattice workload, as nested lists.

    minima-small matches the generator of the acceptance property tests:
    d uniform in 2..4, B B^T + 0.4 I. exclude-g5 is a det-1 form of
    dimension 10 (genus 5): B B^T + 0.3 I scaled by det^(-1/10).
    """
    seed, size = POOLS[workload]
    rng = random.Random(seed)
    pool = []
    for _ in range(size):
        if workload == "minima-small":
            pool.append(_gram(rng, rng.randrange(2, 5), 0.4))
        else:
            raw = _gram(rng, EXCLUDE_DIM, 0.3)
            s = _det(raw) ** (1.0 / EXCLUDE_DIM)
            pool.append([[v / s for v in row] for row in raw])
    return pool


def pool_digest(pool) -> str:
    return hashlib.sha256(json.dumps(pool).encode()).hexdigest()


def order(workload: str, seed: int) -> list[int]:
    """Pool indices in the run's order: a seeded shuffle."""
    if workload == "certify-all":
        return [0]
    idx = list(range(POOLS[workload][1]))
    random.Random(seed).shuffle(idx)
    return idx


class Inputs:
    """The items one run feeds its ops, by pool index.

    For exclude-g5 each item is a Gram file under ``work_dir``, because the
    op is the ``exclude`` command, which reads a file; ``write=False``
    reuses the files another process of the same run wrote.
    """

    def __init__(self, workload: str, work_dir: str, write: bool = True):
        self.workload = workload
        self.pool = []
        self.files: list[str] = []
        if workload == "minima-small" or (workload == "exclude-g5" and write):
            self.pool = make_pool(workload)
        if workload == "exclude-g5":
            self.files = [os.path.join(work_dir, f"g5_{i:04d}.json")
                          for i in range(POOLS[workload][1])]
        if self.files and write:
            os.makedirs(work_dir, exist_ok=True)
            for path, g in zip(self.files, self.pool):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"dim": EXCLUDE_DIM,
                               "entries": [v for row in g for v in row],
                               "mode": "ppav"}, fh)

    def item(self, i: int):
        if self.workload == "minima-small":
            return self.pool[i]
        if self.workload == "exclude-g5":
            return self.files[i]
        return None

    def cleanup(self) -> None:
        for path in self.files:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def make_op(workload: str, modules):
    """The op of a workload, as a one-argument callable.

    Layers are looked up as module attributes at call time (never bound
    locally), so the tracer's wrappers see every call.
    """
    cli, lattice = modules.cli, modules.lattice

    def certify_op(_item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(CERTIFY_ARGV)
        return rc, buf.getvalue()

    def minima_op(raw):
        g = lattice.validate(raw)
        return lattice.successive_minima(g, g.dim).values

    def exclude_op(path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["exclude", path, "--format", "json"])
        return rc, buf.getvalue()

    return {"certify-all": certify_op, "minima-small": minima_op,
            "exclude-g5": exclude_op}[workload]


# ----------------------------------------------------------------------
# Reference outputs
# ----------------------------------------------------------------------

def summarize(workload: str, result):
    """The parts of an op's output that the reference freezes."""
    if workload == "minima-small":
        return [float(v) for v in result]
    rc, text = result
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    rows = json.loads(text)
    if workload == "exclude-g5":
        row = rows[0]
        return {"verdict": row["verdict"], "minima": [row["m1_sq"], row["m2_sq"]]}
    return {r["family"]: {"status": r["status"], "tail_status": r["tail_status"],
                          "min_slack_lo": r["min_slack_lo"]} for r in rows}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _close_all(got, want) -> bool:
    return len(got) == len(want) and all(_close(a, b) for a, b in zip(got, want))


def matches(workload: str, got, want) -> bool:
    """Whether a summarized output agrees with its reference entry:
    statuses and verdicts equal, numbers within 1e-9 relative."""
    if workload == "minima-small":
        return _close_all(got, want)
    if workload == "exclude-g5":
        return got["verdict"] == want["verdict"] and \
            _close_all(got["minima"], want["minima"])
    if got.keys() != want.keys():
        return False
    return all(
        g["status"] == w["status"] and g["tail_status"] == w["tail_status"]
        and _close(g["min_slack_lo"], w["min_slack_lo"])
        for g, w in ((got[f], want[f]) for f in want))


def check(workload: str, result, want) -> bool:
    """An op passes when its output can be summarized and matches."""
    try:
        return matches(workload, summarize(workload, result), want)
    except (ValueError, KeyError, IndexError, TypeError):
        return False


def load_reference(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
