"""Command-line interface.

Subcommands: bounds, minima, exclude, certify, ypiece, collar, corollary.
Every command renders through one of three formats (json, csv, table) and
uses the stable exit-code contract: 0 success, 2 usage error, 3 input
validation failure, 4 certification violated, 5 certification undecided.
Each subparser names its command and states each flag's contract as an
argparse type, so a bad flag exits 2 before any command runs. A bad value
read from a file, one a formula rejects or cannot evaluate, or a result that
is not a finite number, exits 3.
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
from .interval import IW, IndeterminateCell, Interval

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


def render(rows: list[dict], fmt: str) -> None:
    """Render a homogeneous list of records to stdout as json, csv, or a
    table, and flush it; nothing is written when a record holds NaN or an
    infinity, which the JSON encoder rejects for every format."""
    try:
        text = json.dumps(rows, indent=2, allow_nan=False)
    except ValueError:
        raise OverflowError("non-finite value in output") from None
    _emit(lambda out: out.write(text + "\n") if fmt == "json"
          else _write(rows, fmt, out))


def _emit(write) -> None:
    """Call ``write(sys.stdout)`` and flush. A reader that has gone away is
    no error of the command: on ``BrokenPipeError`` stdout is pointed at
    the null device (the recipe in the ``signal`` module's documentation),
    so the exit flush does not fail again, and the command keeps its exit
    code."""
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write(rows: list[dict], fmt: str, out) -> None:
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

def _named(**values) -> list[dict]:
    """Rows ``{"name": ..., "value": ...}`` in keyword order."""
    return [{"name": k, "value": v} for k, v in values.items()]


def cmd_bounds(args, parser) -> int:
    g = args.g
    genus = Interval.point(float(g))
    her_lo, her_hi = bounds.hermite_ppav_bounds(g)
    render(_named(
        thm_bs_upper=bounds.thm_bs_upper(genus).mid,
        thm_main_m1=bounds.thm_main_m1(genus).mid,
        thm_main_m2=bounds.thm_main_m2(genus).mid,
        systole_gamma1=bounds.systole_gamma1(genus).mid,
        systole_gamma2=bounds.systole_gamma2(genus).mid,
        hyperelliptic=bounds.HYPERELLIPTIC.mid,
        bavard=bounds.bavard_bound(genus).mid,
        hermite_lower=her_lo, hermite_upper=her_hi,
        minkowski_product_log=bounds.minkowski_product_log_bound(g),
    ), args.format)
    return EXIT_OK


def cmd_minima(args, parser) -> int:
    gram = lattice.load_gram(args.file)
    minima = lattice.successive_minima(
        gram, gram.dim if args.k is None else args.k)
    rows = [
        {"index": i + 1, "norm_sq": w.norm_sq, "coeffs": list(w.coeffs)}
        for i, w in enumerate(minima.witnesses)
    ]
    render(rows, args.format)
    return EXIT_OK


def cmd_exclude(args, parser) -> int:
    gram = lattice.load_gram(args.file, mode=lattice.Mode.PPAV)
    render([bounds.jacobian_exclusion(gram).as_dict()], args.format)
    return EXIT_OK


def cmd_certify(args, parser) -> int:
    if args.families == ["all"]:
        fams = certify.FAMILIES
    else:
        try:
            fams = tuple(certify.lookup(f) for f in args.families)
        except DomainError as exc:
            parser.error(str(exc))
    # a g_max that a box ceiling or tail floor cannot take fails at once,
    # not after the families before it have swept
    for f in fams:
        certify.check_g_max(f, args.gmax)
    reports = [certify.certify(f, tol=args.tol, budget=args.budget,
                               g_max=args.gmax) for f in fams]
    render([r.as_dict() for r in reports], args.format)
    if any(r.status == "Violated" for r in reports):
        return EXIT_VIOLATED
    if any(r.status == "Undecided" and not f.exempt
           for f, r in zip(fams, reports)):
        return EXIT_UNDECIDED
    return EXIT_OK


def cmd_ypiece(args, parser) -> int:
    gamma, w = args.gamma, args.w
    side = Interval.point(w)
    try:
        if args.config == 1:
            nu = collar.pentagon(Interval.point(gamma / 2.0), side) * 4.0
            rows = _named(nu=nu.mid, eta_bound=gamma / 2.0 + 2.0 * w,
                          coarse_bound=2.0 * gamma + 4.0 * w)
        else:
            nu1 = collar.pentagon(Interval.point(gamma / 4.0), side) * 2.0
            rows = _named(nu1_bound=nu1.mid,
                          coarse_bound=gamma / 2.0 + 2.0 * w)
    except IndeterminateCell:
        raise  # an overflow, not a missing Y-piece
    except DomainError:
        _emit(lambda out: out.write("degenerate\n"))
        return EXIT_OK
    render(rows, args.format)
    return EXIT_OK


def cmd_collar(args, parser) -> int:
    gamma = Interval.point(args.gamma)
    w1 = collar.config1_width(gamma)
    rows = _named(separation=collar.separation(gamma * 0.5).mid,
                  width_lower_config1=w1.mid, width_lower_config2=IW.mid,
                  capacity_at_config1_width=collar.capacity(gamma, w1).mid)
    if args.g is not None:
        rows += _named(width_area_upper=collar.area_width(
            Interval.point(float(args.g)), gamma).mid)
    render(rows, args.format)
    return EXIT_OK


def cmd_corollary(args, parser) -> int:
    if args.file is not None:
        decomp = bounds.load_decomposition(args.file)
    elif args.t is None or not args.piece:
        parser.error("corollary needs --t and at least one --piece, or --file")
    else:
        decomp = bounds.Decomposition(t=args.t, pieces=tuple(args.piece))
    render(bounds.corollary_report(decomp), args.format)
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _checked(convert, ok, expected: str):
    """An argparse type that converts text and rejects values failing ``ok``
    or failing to convert (``ValueError`` or ``DomainError``)."""
    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, DomainError):
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
_genus = _checked(int, lambda v: v >= 2, "an integer genus >= 2")


def _parse_signature(text: str) -> bounds.Signature:
    g, n = text.split(",")
    return bounds.Signature(int(g), int(n))


_signature = _checked(_parse_signature, lambda sig: True,
                      "a hyperbolic signature 'g,n'")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "table"),
                   default="table")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it holds no per-call
    state."""
    parser = argparse.ArgumentParser(
        prog="schottky-gauge",
        description="Bounds, successive minima, and certified inequalities "
                    "for Jacobian exclusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="named bound values at a given genus")
    p.set_defaults(run=cmd_bounds)
    p.add_argument("--g", type=_genus, required=True)
    _add_format(p)

    p = sub.add_parser("minima", help="successive minima of a Gram matrix file")
    p.set_defaults(run=cmd_minima)
    p.add_argument("file")
    p.add_argument("--k", type=_positive_int, default=None)
    _add_format(p)

    p = sub.add_parser("exclude", help="Jacobian exclusion test on a PPAV file")
    p.set_defaults(run=cmd_exclude)
    p.add_argument("file")
    _add_format(p)

    p = sub.add_parser("certify", help="run the inequality certification suite")
    p.set_defaults(run=cmd_certify)
    p.add_argument("--families", nargs="+", default=["all"])
    p.add_argument("--gmax", type=_genus_cutoff, default=certify.DEFAULT_G_MAX)
    p.add_argument("--tol", type=_positive_float, default=certify.DEFAULT_TOL)
    p.add_argument("--budget", type=_positive_int,
                   default=certify.DEFAULT_BUDGET)
    _add_format(p)

    p = sub.add_parser("ypiece", help="Y-piece boundary lengths")
    p.set_defaults(run=cmd_ypiece)
    p.add_argument("--gamma", type=_positive_float, required=True)
    p.add_argument("--w", type=_positive_float, required=True)
    p.add_argument("--config", type=int, choices=(1, 2), required=True)
    _add_format(p)

    p = sub.add_parser("collar", help="collar widths and capacity at a length")
    p.set_defaults(run=cmd_collar)
    p.add_argument("--gamma", type=_positive_float, required=True)
    p.add_argument("--g", type=_genus, default=None)
    _add_format(p)

    p = sub.add_parser("corollary", help="per-piece decomposition bounds")
    p.set_defaults(run=cmd_corollary)
    p.add_argument("--t", type=_positive_float, default=None)
    p.add_argument("--piece", type=_signature, action="append",
                   help="signature as 'g,n'; repeatable")
    p.add_argument("--file", default=None,
                   help='JSON decomposition {"t": ..., "pieces": [[g, n], ...]}')
    _add_format(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except ValidationError as exc:
        print(exc.name, file=sys.stderr)
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
    except SchottkyGaugeError as exc:
        print(str(exc), file=sys.stderr)
    except OverflowError as exc:
        print(f"value out of floating-point range: {exc}", file=sys.stderr)
    return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
