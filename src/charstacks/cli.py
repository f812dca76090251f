"""Command-line front end.

Subcommands:

  hlv                     print HH_{mu,m}(z,w)
  eseries / mixed         print a SeriesReport for a surface and multipartition
  verify-counterexample   run the r=2 central-orbit check; exit 1 if it fails
  count                   brute-force groupoid count over F_q vs the formula

Exit codes: 0 success/verified, 1 verified-false, 2 usage error or an
input outside the theory (e.g. `count` on a non-generic orbit, where the
formula is not claimed), 3 a count over ffcount's fixed budget or memory
guard, 4 an internal arithmetic failure (the heuristic gcd giving up), so
that no verdict is read off a computation that did not finish.  `count`
checks its size before the orbit's genericity, so an oversized count exits
3, and adds `formula_value` and `match` to the library's count record.

The library returns reports as records (`as_dict()`); this module alone
renders them as JSON, text or LaTeX.  Every invocation computes from
scratch; no state persists between runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import charstack as cs
from . import ffcount as fc
from . import partitions as pt
from .exactalg import VARS
from .hlvkernel import hlv_HH

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def parse_multipartition(s):
    """'(2,1)|(1,1,1)' -> ((2,1),(1,1,1)); single alphabet needs no '|'."""
    mus = tuple(pt.parse_partition(part) for part in s.split("|"))
    return pt.check_multipartition(mus)


def _emit(fmt, record, text, latex):
    """Print a report: its record as JSON, or its text or LaTeX form."""
    if fmt == "json":
        print(json.dumps(record, indent=2, sort_keys=True))
    elif fmt == "latex":
        print(latex)
    else:
        print(text)


def _latex(f):
    """LaTeX form of f, which must already be reduced: every caller passes
    the output of hlv_HH or u_to_q.  num and den are integer polynomials,
    so every coefficient prints as an int, and rational content shows as
    a constant den, as in \\frac{q + 2q^{2}}{2}."""

    def poly(p):
        if p.is_zero():
            return "0"
        parts = []
        for e in sorted(p.terms):
            c = p.terms[e]
            body = "".join(
                f"{VARS[i]}^{{{x}}}" if x != 1 else VARS[i]
                for i, x in enumerate(e) if x)
            coef = str(c)
            if body and coef == "1":
                coef = ""
            elif body and coef == "-1":
                coef = "-"
            parts.append(coef + body if body else coef)
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    if f.den.is_one():
        return poly(f.num)
    return f"\\frac{{{poly(f.num)}}}{{{poly(f.den)}}}"


def _surface_from_args(args, k):
    if args.nonorientable == args.orientable:
        raise ValueError("exactly one of --nonorientable/--orientable required")
    if args.nonorientable and args.r is None:
        raise ValueError("--nonorientable requires --r")
    if args.orientable and args.g is None:
        raise ValueError("--orientable requires --g")
    # a stray --r or --g is refused by SurfaceSpec, not dropped
    kind = "nonorientable" if args.nonorientable else "orientable"
    return cs.SurfaceSpec(kind=kind, k=k, r=args.r, g=args.g)


def cmd_hlv(args):
    mus = parse_multipartition(args.mu)
    HH = hlv_HH(mus, args.m)
    text = HH.text()
    _emit(args.format, {"mu": [list(m) for m in mus], "m": args.m, "HH": text},
          text, _latex(HH))
    return EXIT_OK


def _orbits_from_args(args, mus):
    if not args.central_angle:
        return None
    if len(args.central_angle) != len(mus):
        raise ValueError("need one --central-angle per alphabet")
    return [cs.OrbitSpec.central(_angle(a), sum(mu))
            for a, mu in zip(args.central_angle, mus)]


def _angle(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"--central-angle {text!r} is not a fraction") from None


def cmd_series(args, which):
    mus = parse_multipartition(args.mu)
    surface = _surface_from_args(args, len(mus))
    orbits = _orbits_from_args(args, mus)
    fn = cs.eseries if which == "eseries" else cs.mixed_series
    report = fn(surface, mus, orbits=orbits)
    _emit(args.format, report.as_dict(), report.value.text(),
          _latex(report.value))
    return EXIT_OK


def cmd_verify_counterexample(args):
    report = cs.counterexample_report(args.n, args.d)
    _emit(args.format, report.as_dict(),
          "confirmed" if report.confirmed else "NOT confirmed",
          _latex(report.mixed.value))
    return EXIT_OK if report.confirmed else EXIT_FALSE


def cmd_count(args):
    surface = _surface_from_args(args, 1)
    if args.nonorientable:
        copies, count = args.r, fc.count_nonorientable
    else:
        copies, count = args.g, fc.count_orientable
    # refuse a bad group or an oversized count before anything computes
    fc.check_size(copies, 1, args.q, args.n)
    orbit = fc.FqOrbit.central(args.zeta, args.n, args.q)
    # refuses a non-generic orbit, for which no formula is claimed
    series = cs.eseries(surface, ((args.n,),), [orbit.as_angles()])
    formula = (None if series.half_integer_powers
               else series.value.eval({"q": Fraction(args.q)}))
    report = count(copies, [orbit])
    match = None if formula is None else report.groupoid_count == formula
    record = dict(report.as_dict(), match=match,
                  formula_value=None if formula is None else str(formula))
    text = (f"groupoid count {report.groupoid_count}"
            + ("" if match is None else f", match {match}"))
    _emit(args.format, record, text, str(report.groupoid_count))
    return EXIT_FALSE if match is False else EXIT_OK


def build_parser():
    top = argparse.ArgumentParser(prog="charstacks")
    top.add_argument("--format", choices=("json", "latex", "text"),
                     default="json")
    # also accepted after the subcommand; the later value wins
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "latex", "text"),
                        default=argparse.SUPPRESS)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hlv", help="print HH_{mu,m}(z,w)", parents=[common])
    p.add_argument("--mu", required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(run=cmd_hlv)

    for name in ("eseries", "mixed"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--mu", required=True)
        p.add_argument("--nonorientable", action="store_true")
        p.add_argument("--orientable", action="store_true")
        p.add_argument("--r", type=int)
        p.add_argument("--g", type=int)
        p.add_argument("--central-angle", action="append",
                       help="orbit angle as a fraction, one per alphabet")
        p.set_defaults(run=lambda a, w=name: cmd_series(a, w))

    p = sub.add_parser("verify-counterexample", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(run=cmd_verify_counterexample)

    p = sub.add_parser("count", parents=[common])
    p.add_argument("--nonorientable", action="store_true")
    p.add_argument("--orientable", action="store_true")
    p.add_argument("--r", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--zeta", type=int, default=1)
    p.set_defaults(run=cmd_count)

    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.run(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_RESOURCE if isinstance(exc, fc.EnumerationTooLarge)
                else EXIT_USAGE)
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
