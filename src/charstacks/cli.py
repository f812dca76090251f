"""Command-line front end.

Subcommands:

  hlv                     print HH_{mu,m}(z,w)
  eseries / mixed         print a SeriesReport for a surface and multipartition
  verify-counterexample   run the r=2 central-orbit check; exit 1 if it fails
  count                   brute-force groupoid count over F_q vs the formula

Exit codes: 0 success/verified, 1 verified-false, 2 usage error or an
input outside the theory (e.g. `count` on a non-generic orbit, where the
formula is not claimed), 3 resource cap exceeded.  `count` checks its
size before the orbit's genericity, so an oversized count exits 3.

Every invocation computes from scratch; no state persists between runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import charstack as cs
from . import ffcount as fc
from . import partitions as pt
from .hlvkernel import hlv_HH

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def parse_multipartition(s):
    """'(2,1)|(1,1,1)' -> ((2,1),(1,1,1)); single alphabet needs no '|'."""
    mus = tuple(pt.parse_partition(part) for part in s.split("|"))
    return pt.check_multipartition(mus)


def _emit(fmt, payload_json, payload_text, payload_latex):
    if fmt == "json":
        print(payload_json)
    elif fmt == "latex":
        print(payload_latex)
    else:
        print(payload_text)


def _surface_from_args(args, k):
    if args.nonorientable == args.orientable:
        raise ValueError("exactly one of --nonorientable/--orientable required")
    if args.nonorientable:
        if args.r is None:
            raise ValueError("--nonorientable requires --r")
        return cs.nonorientable(r=args.r, k=k)
    if args.g is None:
        raise ValueError("--orientable requires --g")
    return cs.orientable(g=args.g, k=k)


def cmd_hlv(args):
    mus = parse_multipartition(args.mu)
    HH = hlv_HH(mus, args.m)
    text = HH.text()
    out = json.dumps(
        {"mu": [list(m) for m in mus], "m": args.m, "HH": text},
        indent=2, sort_keys=True)
    _emit(args.format, out, text, cs._latex(HH))
    return EXIT_OK


def _orbits_from_args(args, mus):
    if not args.central_angle:
        return None
    if len(args.central_angle) != len(mus):
        raise ValueError("need one --central-angle per alphabet")
    return [cs.OrbitSpec.central(Fraction(a), sum(mu))
            for a, mu in zip(args.central_angle, mus)]


def cmd_series(args, which):
    mus = parse_multipartition(args.mu)
    surface = _surface_from_args(args, len(mus))
    orbits = _orbits_from_args(args, mus)
    fn = cs.eseries if which == "eseries" else cs.mixed_series
    report = fn(surface, mus, orbits=orbits)
    _emit(args.format, report.to_json(), report.value.text(), report.to_latex())
    return EXIT_OK


def cmd_verify_counterexample(args):
    report = cs.counterexample_report(args.n, args.d)
    _emit(args.format, report.to_json(),
          "confirmed" if report.confirmed else "NOT confirmed",
          cs._latex(report.mixed.value))
    return EXIT_OK if report.confirmed else EXIT_FALSE


def cmd_count(args):
    surface = _surface_from_args(args, 1)
    if args.nonorientable:
        copies, count = args.r, fc.count_nonorientable
    else:
        copies, count = args.g, fc.count_orientable
    # refuse a bad group or an oversized count before anything computes
    fc.check_size(copies, 1, args.q, args.n, args.cap)
    orbit = fc.FqOrbit.central(args.zeta, args.n, args.q)
    # refuses a non-generic orbit, for which no formula is claimed
    series = cs.eseries(surface, ((args.n,),), [orbit.as_angles(args.q)])
    formula = (None if series.half_integer_powers
               else series.value.eval({"q": Fraction(args.q)}))
    report = count(copies, [orbit], args.q, args.n, formula_value=formula,
                   cost_cap=args.cap)
    text = (f"groupoid count {report.groupoid_count}"
            + ("" if report.match is None else f", match {report.match}"))
    _emit(args.format, report.to_json(), text, str(report.groupoid_count))
    if report.match is False:
        return EXIT_FALSE
    return EXIT_OK


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
    p.add_argument("--cap", type=float, default=fc.DEFAULT_COST_CAP)
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
    except fc.EnumerationTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
