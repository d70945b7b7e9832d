"""Mutation inventory: named one-line source edits that the tests must kill.

Run from a checkout, with the test extras installed:

    python tests/mutants.py

Each entry below edits one line of one module: ``old`` must occur exactly
once in ``src/schottky_gauge/<module>.py`` (it may carry a neighbouring
line to be unique), and ``new`` replaces it.  The script copies ``src/``,
``tests/`` and ``pyproject.toml`` into a temporary directory, because
``pyproject.toml`` puts the checkout's own ``src/`` first on pytest's
path, so a mutated tree offered through ``PYTHONPATH`` would never be
imported.  It runs all the named test files once on the unmutated copy,
then, for each edit, ``pytest -x -q`` on the test files named for it (a
short name ``x`` is ``tests/test_x.py``) under a per-run timeout.  A
mutant is killed when that run fails or times out.  The exit status is 0
only when the baseline passes, every edit applies and compiles, and every
mutant is killed.

Hypothesis runs with a fixed seed and an empty example database, so a run
kills the same mutants each time.  pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300  # seconds for one pytest run

# (name, module, old, new, test files that must kill the edit)
MUTANTS = [
    # -- interval: rounding directions, ulp counts, floors, sign cases
    ("mid-overflow-fallback", "interval", "m = 0.5 * self.lo + 0.5 * self.hi",
     "m = self.lo", "interval"),
    ("add-lower-end-rounds-up", "interval", "_next(self.lo + other.lo, _NEG_INF)",
     "_next(self.lo + other.lo, _INF)", "interval"),
    ("reflected-division-swapped", "interval", "return Interval.point(other) / self",
     "return self / Interval.point(other)", "interval"),
    ("mul-nonnegative-case-on-one-sign", "interval",
     "if lo >= 0.0 and olo >= 0.0:", "if lo >= 0.0 or olo >= 0.0:", "interval"),
    ("div-divisor-touching-zero", "interval",
     "if olo <= 0.0 <= ohi:", "if olo < 0.0 < ohi:", "interval"),
    ("sq-straddle-not-widened", "interval", "return Interval(0.0, _next(m * m, _INF))",
     "return Interval(0.0, m * m)", "interval"),
    ("log-domain-admits-zero", "interval", "if self.lo <= 0:", "if self.lo < 0:",
     "interval"),
    ("monotone-lower-end-not-widened", "interval",
     "lo, hi = _next(lo, _NEG_INF), _next(hi, _INF)", "hi = _next(hi, _INF)",
     "interval_soundness"),
    ("sinh-one-ulp", "interval", "math.sinh, self.lo, self.hi, 2)",
     "math.sinh, self.lo, self.hi, 1)", "interval_soundness"),
    ("cosh-floor-removed", "interval", "math.cosh, a, b, 2, 1.0)", "math.cosh, a, b, 2)",
     "interval_soundness"),
    ("acosh-floor-removed", "interval", "math.acosh, self.lo, self.hi, 2, 0.0)",
     "math.acosh, self.lo, self.hi, 2)", "interval"),
    ("sinhc-three-ulp", "interval", "sinhc, a, b, 4, 1.0)", "sinhc, a, b, 3, 1.0)",
     "interval_soundness"),
    ("asin-domain-excludes-one", "interval",
     "if self.lo < -1.0 or self.hi > 1.0:", "if self.lo < -1.0 or self.hi >= 1.0:",
     "interval"),
    ("overflow-message-reworded", "interval", 'overflow on {cell!r}"',
     'overflow at {cell!r}"', "reach"),
    # -- collar: one formula per lemma
    ("dcap-single-arcsin", "collar", "return IPI - (1.0 / w.cosh()).asin() * 2.0",
     "return IPI - (1.0 / w.cosh()).asin()", "collar"),
    ("half-over-quarter-sign", "collar", "return c * 2.0 - 1.0 / c",
     "return c * 2.0 + 1.0 / c", "collar"),
    ("config2-width-cap-as-floor", "collar", ".min_with(WIDTH_CAP)",
     ".max_with(WIDTH_CAP)", "collar"),
    ("pentagon-clamped", "collar", "return (a.sinh() * b.sinh()).acosh()",
     "return (a.sinh() * b.sinh()).acosh_clamped()", "collar"),
    ("qwtwo-quarter-length", "collar", "(_SINH_WP * (a * 0.5).sinh()",
     "(_SINH_WP * (a * 0.25).sinh()", "collar"),
    ("sinh-wp", "collar", "_SINH_WP = 2.0 / Interval.point(5.0).sqrt()",
     "_SINH_WP = 2.0 / Interval.point(6.0).sqrt()", "collar"),
    ("separation-cosh", "collar", "return (1.0 / half.sinh()).asinh()",
     "return (1.0 / half.cosh()).asinh()", "collar"),
    # -- bounds: the ceilings and the verdict's thresholds
    ("m2-ceiling-boundary", "bounds", "m2_sq > thr_m2:", "m2_sq >= thr_m2:", "bounds"),
    ("hyperelliptic-threshold", "bounds", "elif m1_sq > thr_hyp:",
     "elif m1_sq > thr_bs:", "bounds"),
    ("coefficient-3.1", "bounds", "_R31 = Interval.ratio(31.0, 10.0)",
     "_R31 = Interval.ratio(30.0, 10.0)", "bounds"),
    ("buser-sarnak-coefficient", "bounds", "return thm_main_m1(g) * 3.0 / IPI",
     "return thm_main_m1(g) * 2.0 / IPI", "bounds"),
    ("bavard-angle", "bounds", "(1.0 + 1.0 / g))", "(1.0 + 2.0 / g))", "bounds"),
    ("minkowski-product-exponent", "bounds",
     "return 2.0 * g * lattice.minkowski_log_constant(2 * g)",
     "return g * lattice.minkowski_log_constant(2 * g)", "bounds"),
    ("mixing-cap-from-half", "bounds", "if t >= 2.0:", "if t >= 0.5:", "bounds"),
    ("log8-offset", "bounds", "return (g * 8.0 - 7.0).log()",
     "return (g * 8.0 - 6.0).log()", "bounds"),
    # -- certify: the verdict rules, the boxes, the budget
    ("strict-tail-rule", "certify", "(proof.strict and lb >= 0.0)", "(lb >= 0.0)",
     "certify"),
    ("tail-accepts-zero-floor", "certify", "if lb > 0.0 or", "if lb >= 0.0 or",
     "certify"),
    ("cf-i-tail-not-strict", "certify", "strict=True)", "strict=False)",
     "certify reach"),
    ("violation-without-point-proof", "certify",
     "if point is not None and point.hi < 0.0:", "if point is not None:", "certify"),
    ("cell-budget-off-by-one", "certify", "budget = CELL_BUDGET",
     "budget = CELL_BUDGET - 1", "certify"),
    ("width-floor-relative-tolerance", "certify", "if m is None:",
     "if m is None or widest < 1e-4:", "certify"),
    ("genus-split-at-midpoint", "certify",
     "split = math.sqrt(c.lo * c.hi) if geometric[i] else c.mid", "split = c.mid",
     "certify"),
    ("ratio-3-over-3.1-as-point", "certify", "_C3_31 = Interval.ratio(3.0, 3.1)",
     "_C3_31 = Interval.point(3.0 / 3.1)", "certify"),
    ("gamma2-box-start", "certify", "_GAMMA2_LO = Interval.ratio(21.0, 10.0).lo",
     "_GAMMA2_LO = Interval.ratio(21.0, 10.0).hi", "certify"),
    ("half-pi-box-end", "certify", "(IPI * 0.5).hi)", "(IPI * 0.5).lo)", "certify"),
    ("cf-j-box-start", "certify", 'Dim("alpha1", 1.5,', 'Dim("alpha1", 1.6,',
     "certify"),
    ("axis-part-unbounded", "certify",
     "@functools.lru_cache(maxsize=_AXIS_PART_SIZE)\ndef _cfa_genus",
     "@functools.lru_cache(maxsize=None)\ndef _cfa_genus", "certify"),
    # -- certify: each outward step of CF-A's endpoint form
    ("cfa-product-not-widened", "certify",
     "lo, hi = _next(p.lo * s.lo, _NEG_INF), _next(p.hi * s.hi, _INF)",
     "lo, hi = p.lo * s.lo, p.hi * s.hi", "certify"),
    ("cfa-acosh-one-ulp", "certify",
     "lo = _next(_next(math.acosh(lo), _NEG_INF), _NEG_INF)\n"
     "    hi = _next(_next(math.acosh(hi), _INF), _INF)",
     "lo = _next(math.acosh(lo), _NEG_INF)\n    hi = _next(math.acosh(hi), _INF)",
     "certify"),
    ("cfa-domain-excludes-one", "certify", "if not lo >= 1.0:", "if not lo > 1.0:",
     "certify"),
    ("cfa-overflow-as-domain-error", "certify",
     "raise (DomainError if hi < _INF else IndeterminateCell)(",
     "raise DomainError(", "certify"),
    ("cfa-difference-not-widened", "certify",
     "_next(_next(log8.lo - hi, _NEG_INF) * 4.0, _NEG_INF)",
     "_next((log8.lo - hi) * 4.0, _NEG_INF)", "certify"),
    ("cfa-times-four-not-widened", "certify",
     "_next(_next(log8.hi - lo, _INF) * 4.0, _INF))",
     "_next(log8.hi - lo, _INF) * 4.0)", "certify"),
    # -- lattice: tolerances, the half tree, pivots, reduction, witnesses, the
    # summation order
    ("symmetry-tolerance", "lattice", "_SYMMETRY_TOL = 1e-12", "_SYMMETRY_TOL = 1e-9",
     "lattice"),
    ("symmetry-tolerance-boundary", "lattice", "chain(*at)))) > \\",
     "chain(*at)))) >= \\", "lattice"),
    ("det-tolerance", "lattice", "_DET_ONE_TOL = 1e-6", "_DET_ONE_TOL = 1e-3",
     "extremal_lattices"),
    ("radius-slack", "lattice", "_RADIUS_SLACK = 1e-9", "_RADIUS_SLACK = 0.0",
     "lattice extremal_lattices"),
    ("lll-delta", "lattice", "_LLL_DELTA = 0.99", "_LLL_DELTA = 0.75", "lattice"),
    ("lll-swap-count-from-one", "lattice", "swaps = 0", "swaps = 1", "lattice"),
    ("lll-size-reduction-truncates", "lattice", "q = round(ck[j] / cols[j][j])",
     "q = int(ck[j] / cols[j][j])", "lattice"),
    ("half-tree-start", "lattice", "lo = int(i == 0) if zero", "lo = int(i <= 1) if zero",
     "lattice"),
    ("half-tree-node-count", "lattice", "nodes += hi - lo + 1", "nodes += hi - lo",
     "lattice"),
    ("canonical-sign", "lattice", "return coeffs if c > 0 else",
     "return coeffs if c < 0 else", "lattice"),
    ("pivot-in-given-order", "lattice", "m = min(range(k, d), key=schur.__getitem__)",
     "m = k", "lattice"),
    ("echelon-content-kept", "lattice", "g = math.gcd(*row)", "g = 1", "lattice"),
    ("first-radius-at-cap", "lattice", "radius = min(minkowski_radius(gram), cap)",
     "radius = cap", "lattice"),
    ("exact-det-pivot-unchecked", "lattice",
     "piv = m[k]\n        if piv[k] <= 0:\n"
     '            raise NotPositiveDefinite("matrix is not positive definite")',
     "piv = m[k]", "extremal_lattices cli"),
    ("minkowski-constant", "lattice", "math.lgamma(d / 2.0 + 1.0) / (d / 2.0)",
     "math.lgamma(d / 2.0 + 1.0) / d", "bounds lattice"),
    ("norm-sq-interpreter-sum", "lattice", "fold(add, map(mul, row, coeffs), 0.0)",
     "sum(map(mul, row, coeffs))", "lattice"),
    ("json-bool-accepted", "lattice", "if isinstance(value, (bool, str)):",
     "if isinstance(value, str):", "lattice"),
    # -- cli: the exit-code contract and the flag rules
    ("undecided-exit-code", "cli", "EXIT_UNDECIDED = 5", "EXIT_UNDECIDED = 4", "cli"),
    ("exempt-ignored", "cli", 'r.status == "Undecided" and not f.exempt',
     'r.status == "Undecided" and f.exempt', "cli"),
    ("zero-budget-flag", "cli", "_positive_int = _checked(int, lambda v: v > 0,",
     "_positive_int = _checked(int, lambda v: v >= 0,", "cli"),
    ("exclude-reads-file-mode", "cli",
     "gram = lattice.load_gram(args.file, mode=lattice.Mode.PPAV)",
     "gram = lattice.load_gram(args.file)", "cli"),
    ("infinity-printed", "cli", "allow_nan=False", "allow_nan=True", "cli"),
    ("ypiece-overflow-degenerate", "cli", "raise  # an overflow, not a missing Y-piece",
     "return None, EXIT_OK", "cli"),
    ("broken-pipe-uncaught", "cli", "except BrokenPipeError:", "except ValueError:",
     "cli"),
    ("corollary-file-takes-flags", "cli",
     "elif args.file is not None and args.t is None and not args.piece:",
     "elif args.file is not None:", "cli"),
    # -- cli: the one output path
    ("main-drops-handler-code", "cli", "        return code\n", "        return EXIT_OK\n",
     "cli"),
    ("float-range-message-reworded", "cli", 'f"value out of floating-point range: {exc}"',
     'f"value out of range: {exc}"', "reach"),
    ("csv-twelve-digits", "cli", 'digits = 17 if fmt == "csv" else 12',
     'digits = 12 if fmt == "csv" else 12', "reach"),
    ("table-one-space-between-columns", "cli", '"  ".join(v.ljust(w)',
     '" ".join(v.ljust(w)', "reach"),
    ("table-trailing-space-kept", "cli", ".rstrip() + ", " + ", "reach"),
    ("degenerate-line-unterminated", "cli", '_emit("degenerate\\n")',
     '_emit("degenerate")', "cli"),
]


def _pytest(tree: Path, tests: str) -> subprocess.CompletedProcess | None:
    """The pytest run of the test files in ``tree``; None on timeout."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *(f"tests/test_{t}.py" for t in tests.split())]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tree)
        named = " ".join(dict.fromkeys(" ".join(m[4] for m in MUTANTS).split()))
        base = _pytest(tree, named)
        if base is None or base.returncode:
            print(f"baseline fails: {named}")
            print("timeout" if base is None else base.stdout[-4000:])
            return 1
        for name, module, old, new, tests in MUTANTS:
            path = tree / "src" / "schottky_gauge" / f"{module}.py"
            text = path.read_text()
            if text.count(old) != 1:
                print(f"does not apply  {module}:{name}")
                failures += 1
                continue
            mutated = text.replace(old, new)
            try:  # a syntax error fails every test, so its kill shows nothing
                compile(mutated, str(path), "exec")
            except SyntaxError:
                print(f"does not compile {module}:{name}")
                failures += 1
                continue
            path.write_text(mutated)
            start = time.perf_counter()
            run = _pytest(tree, tests)
            path.write_text(text)
            survived = run is not None and run.returncode == 0
            outcome = ("SURVIVED" if survived else "killed" if run
                       else "killed (timeout)")
            failures += survived
            print(f"{outcome:16} {module}:{name} ({time.perf_counter() - start:.1f} s)",
                  flush=True)
    print(f"{len(MUTANTS)} mutants, {failures} not killed or not applied")
    return int(failures > 0)


if __name__ == "__main__":
    sys.exit(main())
