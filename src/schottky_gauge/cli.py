"""Command-line interface.

Subcommands: bounds, minima, exclude, certify, ypiece, collar, corollary,
listed once in ``COMMANDS`` with their handler, help and arguments. Each
handler returns its rows (None for a degenerate Y-piece, which prints one
line) and its exit code, and ``main`` renders the rows in one of three
formats (json, csv, table). The exit codes are a stable contract: 0
success, 2 usage error, 3 input validation failure, 4 certification
violated, 5 certification undecided.
Each subparser names its command and states each flag's contract as an
argparse type, so a bad flag exits 2 before any command runs. A bad value
read from a file, one a formula rejects or cannot evaluate, or a result that
is not a finite number, exits 3.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
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
    """Render a homogeneous list of records to stdout as json, csv (17
    significant digits, which round-trip binary64) or a table (12), and
    flush it; nothing is written when a record holds NaN or an infinity,
    which the JSON encoder rejects for every format."""
    try:
        text = json.dumps(rows, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise OverflowError("non-finite value in output") from None
    if fmt != "json":
        digits = 17 if fmt == "csv" else 12
        lines = [list(row) for row in rows[:1]]  # the header; none without rows
        lines += [[_fmt(row.get(k), digits) for k in lines[0]] for row in rows]
        if fmt == "csv":
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerows(lines)
            text = out.getvalue()
        else:
            widths = [max(map(len, column)) for column in zip(*lines)]
            text = "".join("  ".join(v.ljust(w) for v, w in zip(line, widths))
                           .rstrip() + "\n" for line in lines)
    _emit(text)


def _emit(text: str) -> None:
    """Write ``text`` to stdout and flush. A reader that has gone away is
    no error of the command: on ``BrokenPipeError`` stdout is pointed at
    the null device (the recipe in the ``signal`` module's documentation),
    so the exit flush does not fail again, and the command keeps its exit
    code."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _named(**values) -> list[dict]:
    """Rows ``{"name": ..., "value": ...}`` in keyword order."""
    return [{"name": k, "value": v} for k, v in values.items()]


def cmd_bounds(args, parser):
    g = args.g
    genus = Interval.point(float(g))
    her_lo, her_hi = bounds.hermite_ppav_bounds(g)
    return _named(
        thm_bs_upper=bounds.thm_bs_upper(genus).mid,
        thm_main_m1=bounds.thm_main_m1(genus).mid,
        thm_main_m2=bounds.thm_main_m2(genus).mid,
        systole_gamma1=bounds.systole_gamma1(genus).mid,
        systole_gamma2=bounds.systole_gamma2(genus).mid,
        hyperelliptic=bounds.HYPERELLIPTIC.mid,
        bavard=bounds.bavard_bound(genus).mid,
        hermite_lower=her_lo, hermite_upper=her_hi,
        minkowski_product_log=bounds.minkowski_product_log_bound(g),
    ), EXIT_OK


def cmd_minima(args, parser):
    gram = lattice.load_gram(args.file)
    minima = lattice.successive_minima(
        gram, gram.dim if args.k is None else args.k)
    return [{"index": i + 1, "norm_sq": w.norm_sq, "coeffs": list(w.coeffs)}
            for i, w in enumerate(minima.witnesses)], EXIT_OK


def cmd_exclude(args, parser):
    gram = lattice.load_gram(args.file, mode=lattice.Mode.PPAV)
    return [bounds.jacobian_exclusion(gram).as_dict()], EXIT_OK


def cmd_certify(args, parser):
    if args.families == ["all"]:
        fams = certify.FAMILIES
    else:
        try:
            fams = tuple(certify.lookup(f) for f in args.families)
        except DomainError as exc:
            parser.error(str(exc))
    reports = [certify.certify(f) for f in fams]
    rows = [r.as_dict() for r in reports]
    if any(r.status == "Violated" for r in reports):
        return rows, EXIT_VIOLATED
    if any(r.status == "Undecided" and not f.exempt
           for f, r in zip(fams, reports)):
        return rows, EXIT_UNDECIDED
    return rows, EXIT_OK


def cmd_ypiece(args, parser):
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
        return None, EXIT_OK
    return rows, EXIT_OK


def cmd_collar(args, parser):
    gamma = Interval.point(args.gamma)
    w1 = collar.config1_width(gamma)
    rows = _named(separation=collar.separation(gamma * 0.5).mid,
                  width_lower_config1=w1.mid, width_lower_config2=IW.mid,
                  capacity_at_config1_width=collar.capacity(gamma, w1).mid)
    if args.g is not None:
        rows += _named(width_area_upper=collar.area_width(
            Interval.point(float(args.g)), gamma).mid)
    return rows, EXIT_OK


def cmd_corollary(args, parser):
    if args.file is None and args.t is not None and args.piece:
        decomp = bounds.Decomposition(t=args.t, pieces=tuple(args.piece))
    elif args.file is not None and args.t is None and not args.piece:
        decomp = bounds.load_decomposition(args.file)
    else:
        parser.error("corollary needs --t and at least one --piece, or --file")
    return bounds.corollary_report(decomp), EXIT_OK


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
_genus = _checked(int, lambda v: v >= 2, "an integer genus >= 2")


def _parse_signature(text: str) -> bounds.Signature:
    g, n = text.split(",")
    return bounds.Signature(int(g), int(n))


_signature = _checked(_parse_signature, lambda sig: True,
                      "a hyperbolic signature 'g,n'")

# name: (handler, help, {argument: add_argument keywords}); every command
# also takes --format
COMMANDS = {
    "bounds": (cmd_bounds, "named bound values at a given genus",
               {"--g": dict(type=_genus, required=True)}),
    "minima": (cmd_minima, "successive minima of a Gram matrix file",
               {"file": {}, "--k": dict(type=_positive_int)}),
    "exclude": (cmd_exclude, "Jacobian exclusion test on a PPAV file",
                {"file": {}}),
    "certify": (cmd_certify, "run the inequality certification suite",
                {"--families": dict(nargs="+", default=["all"])}),
    "ypiece": (cmd_ypiece, "Y-piece boundary lengths", {
        "--gamma": dict(type=_positive_float, required=True),
        "--w": dict(type=_positive_float, required=True),
        "--config": dict(type=int, choices=(1, 2), required=True)}),
    "collar": (cmd_collar, "collar widths and capacity at a length", {
        "--gamma": dict(type=_positive_float, required=True),
        "--g": dict(type=_genus)}),
    "corollary": (cmd_corollary, "per-piece decomposition bounds", {
        "--t": dict(type=_positive_float),
        "--piece": dict(type=_signature, action="append",
                        help="signature as 'g,n'; repeatable"),
        "--file": dict(help='JSON decomposition {"t": ..., "pieces": '
                            '[[g, n], ...]}')}),
}


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
    for name, (run, text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        for flag, options in arguments.items():
            p.add_argument(flag, **options)
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="table")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rows, code = args.run(args, parser)
        if rows is None:
            _emit("degenerate\n")
        else:
            render(rows, args.format)
        return code
    except ValidationError as exc:
        print(type(exc).__name__, file=sys.stderr)
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
    except SchottkyGaugeError as exc:
        print(str(exc), file=sys.stderr)
    except OverflowError as exc:
        print(f"value out of floating-point range: {exc}", file=sys.stderr)
    return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
