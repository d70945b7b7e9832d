"""Command-line interface.

Subcommands: bounds, minima, exclude, certify, ypiece, collar, corollary.
Every command renders through one of three formats (json, csv, table) and
uses the stable exit-code contract: 0 success, 2 usage error, 3 input
validation failure, 4 certification violated, 5 certification undecided.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

from . import bounds, certify, collar, lattice
from .errors import DomainError, SchottkyGaugeError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID_INPUT = 3
EXIT_VIOLATED = 4
EXIT_UNDECIDED = 5


def _fmt(value, digits: int):
    if isinstance(value, float):
        return format(value, f".{digits}g")
    if isinstance(value, (list, tuple)):
        return " ".join(_fmt(v, digits) for v in value)
    return str(value)


def _json_ready(value):
    if isinstance(value, float):
        return float(format(value, ".17g"))
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def render(rows: list[dict], fmt: str, out=None) -> None:
    """Render a homogeneous list of records as json, csv, or a table."""
    out = out or sys.stdout
    if fmt == "json":
        json.dump(_json_ready(rows), out, indent=2)
        out.write("\n")
        return
    if not rows:
        return
    keys = list(rows[0].keys())
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_fmt(row.get(k), 17) for k in keys])
        return
    rendered = [[_fmt(row.get(k), 12) for k in keys] for row in rows]
    widths = [
        max(len(k), *(len(r[i]) for r in rendered)) for i, k in enumerate(keys)
    ]
    out.write("  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")
    for r in rendered:
        out.write("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() + "\n")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_bounds(args) -> int:
    g = args.g
    m1, m2 = bounds.thm_main_bounds(g)
    s1, s2 = bounds.systole_bounds(g)
    her_lo, her_hi = bounds.hermite_ppav_bounds(g)
    rows = [
        {"name": "thm_bs_upper", "value": bounds.thm_bs_upper(g)},
        {"name": "thm_main_m1", "value": m1},
        {"name": "thm_main_m2", "value": m2},
        {"name": "systole_gamma1", "value": s1},
        {"name": "systole_gamma2", "value": s2},
        {"name": "hyperelliptic", "value": bounds.hyperelliptic_bound()},
        {"name": "bavard", "value": bounds.bavard_bound(g)},
        {"name": "hermite_lower", "value": her_lo},
        {"name": "hermite_upper", "value": her_hi},
        {"name": "minkowski_product_log",
         "value": bounds.minkowski_product_log_bound(g)},
    ]
    render(rows, args.format)
    return EXIT_OK


def cmd_minima(args) -> int:
    gram = lattice.load_gram(args.file)
    k = args.k if args.k is not None else gram.dim
    if not 1 <= k <= gram.dim:
        raise DomainError(f"k must be in [1, {gram.dim}]")
    minima = lattice.successive_minima(gram, k)
    rows = [
        {"index": i + 1, "norm_sq": w.norm_sq, "coeffs": list(w.coeffs)}
        for i, w in enumerate(minima.witnesses)
    ]
    render(rows, args.format)
    return EXIT_OK


def cmd_exclude(args) -> int:
    gram = lattice.load_gram(args.file, mode=lattice.Mode.PPAV)
    verdict = bounds.jacobian_exclusion(gram)
    rows = [{
        "verdict": verdict.verdict.value,
        "m1_sq": verdict.m1_sq,
        "m2_sq": verdict.m2_sq,
        "thm_bs_threshold": verdict.thm_bs_threshold,
        "thm_main_m2_threshold": verdict.thm_main_m2_threshold,
        "hyperelliptic_threshold": verdict.hyperelliptic_threshold,
        **verdict.margins,
    }]
    render(rows, args.format)
    return EXIT_OK


def cmd_certify(args, parser) -> int:
    if args.families == ["all"]:
        fams = certify.FAMILIES
    else:
        try:
            fams = tuple(certify.lookup(f) for f in args.families)
        except DomainError as exc:
            parser.error(str(exc))
    budget = args.budget
    if budget is None:
        raw = os.environ.get("SCHOTTKY_GAUGE_BUDGET")
        try:
            budget = certify.DEFAULT_BUDGET if raw is None else _positive_int(raw)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"SCHOTTKY_GAUGE_BUDGET: {exc}")
    reports = certify.run_all(tol=args.tol, budget=budget,
                              g_max=args.gmax, families=fams)
    render([r.as_dict() for r in reports], args.format)
    if any(r.status == "Violated" for r in reports):
        return EXIT_VIOLATED
    undecided = [
        r for r in reports
        if r.status == "Undecided" and not certify.lookup(r.family).exempt
    ]
    if undecided:
        return EXIT_UNDECIDED
    return EXIT_OK


def cmd_ypiece(args, parser) -> int:
    if args.gamma <= 0 or args.w <= 0:
        parser.error("gamma and w must be positive")
    rows = []
    try:
        if args.config == 1:
            rows.append({"name": "nu", "value": collar.y1_nu(args.gamma, args.w)})
            rows.append({"name": "eta_bound",
                         "value": collar.y1_eta_bound(args.gamma, args.w)})
            rows.append({"name": "coarse_bound",
                         "value": 2.0 * args.gamma + 4.0 * args.w})
        else:
            rows.append({"name": "nu1_bound",
                         "value": collar.y2_nu1_exact(args.gamma, args.w)})
            rows.append({"name": "coarse_bound",
                         "value": args.gamma / 2.0 + 2.0 * args.w})
    except DomainError:
        print("degenerate")
        return EXIT_OK
    render(rows, args.format)
    return EXIT_OK


def cmd_collar(args, parser) -> int:
    if args.gamma <= 0:
        parser.error("gamma must be positive")
    w1 = collar.collar_width_lower_bound(
        args.gamma, collar.CollarConfig.CONFIG1, True)
    rows = [
        {"name": "separation", "value": collar.collar_separation(args.gamma)},
        {"name": "width_lower_config1", "value": w1},
        {"name": "width_lower_config2", "value": collar.W},
        {"name": "capacity_at_config1_width",
         "value": collar.capacity(args.gamma, w1)},
    ]
    if args.g is not None:
        rows.append({"name": "width_area_upper",
                     "value": collar.collar_width_area_upper(args.gamma, args.g)})
    render(rows, args.format)
    return EXIT_OK


def cmd_corollary(args, parser) -> int:
    if args.file is not None:
        with open(args.file, encoding="utf-8") as fh:
            spec = json.load(fh)
        t = float(spec["t"])
        pieces = [tuple(p) for p in spec["pieces"]]
        n_cut = int(spec.get("n_cut", 1))
    else:
        t = args.t
        pieces = []
        for raw in args.piece or []:
            parts = raw.split(",")
            if len(parts) != 2:
                parser.error(f"--piece expects 'g,n', got {raw!r}")
            pieces.append((int(parts[0]), int(parts[1])))
        n_cut = args.n_cut
    if t is None or t <= 0:
        parser.error("t must be positive")
    if not pieces:
        parser.error("at least one --piece is required")
    decomp = bounds.Decomposition(
        t=t, pieces=tuple(bounds.Signature(g, n) for g, n in pieces),
        n_cut=n_cut)
    report = bounds.corollary_report(decomp)
    rows = []
    for piece in report["pieces"]:
        rows.append({
            "g": piece["g"],
            "n": piece["n"],
            "bound": piece["bound"],
            "bound_plus3_variant": piece["bound_plus3_variant"],
            "log_argument_discrepancy": piece["log_argument_discrepancy"],
            "M": report["M"],
            "denominator": report["denominator"],
        })
    render(rows, args.format)
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _checked(convert, ok, expected: str):
    """An argparse type that converts text and rejects values failing ``ok``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_positive_float = _checked(float, lambda v: 0 < v < math.inf,
                           "a positive finite number")
_genus_cutoff = _checked(float, lambda v: 2 <= v < math.inf,
                         "a finite genus cutoff >= 2")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "table"),
                   default="table")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it holds no per-call
    state, and ``SCHOTTKY_GAUGE_BUDGET`` is read per ``certify`` call."""
    parser = argparse.ArgumentParser(
        prog="schottky-gauge",
        description="Bounds, successive minima, and certified inequalities "
                    "for Jacobian exclusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="named bound values at a given genus")
    p.add_argument("--g", type=int, required=True)
    _add_format(p)

    p = sub.add_parser("minima", help="successive minima of a Gram matrix file")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None)
    _add_format(p)

    p = sub.add_parser("exclude", help="Jacobian exclusion test on a PPAV file")
    p.add_argument("file")
    _add_format(p)

    p = sub.add_parser("certify", help="run the inequality certification suite")
    p.add_argument("--families", nargs="+", default=["all"])
    p.add_argument("--gmax", type=_genus_cutoff, default=certify.DEFAULT_G_MAX)
    p.add_argument("--tol", type=_positive_float, default=certify.DEFAULT_TOL)
    p.add_argument("--budget", type=_positive_int, default=None)
    _add_format(p)

    p = sub.add_parser("ypiece", help="Y-piece boundary lengths")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--config", type=int, choices=(1, 2), required=True)
    _add_format(p)

    p = sub.add_parser("collar", help="collar widths and capacity at a length")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--g", type=int, default=None)
    _add_format(p)

    p = sub.add_parser("corollary", help="per-piece decomposition bounds")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--piece", action="append",
                   help="signature as 'g,n'; repeatable")
    p.add_argument("--n-cut", type=int, default=1)
    p.add_argument("--file", default=None,
                   help="JSON decomposition {t, pieces, n_cut}")
    _add_format(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bounds":
            if args.g < 2:
                parser.error("--g must be at least 2")
            return cmd_bounds(args)
        if args.command == "minima":
            return cmd_minima(args)
        if args.command == "exclude":
            return cmd_exclude(args)
        if args.command == "certify":
            return cmd_certify(args, parser)
        if args.command == "ypiece":
            return cmd_ypiece(args, parser)
        if args.command == "collar":
            return cmd_collar(args, parser)
        if args.command == "corollary":
            return cmd_corollary(args, parser)
    except ValidationError as exc:
        print(exc.name, file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except SchottkyGaugeError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID_INPUT
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
