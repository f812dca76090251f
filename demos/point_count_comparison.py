"""Tabulate brute-force groupoid counts over F_q against the E-series
formula values at the same primes.

Run:  python3 demos/point_count_comparison.py
Exits 1 if any row is a MISMATCH.
"""

import sys
from fractions import Fraction

from charstacks import ffcount as fc
from charstacks.charstack import nonorientable, orientable, eseries

ROWS = [
    # (label, surface, mu, n, zeta, primes, count function)
    ("nonorientable r=1, n=1", nonorientable(1, 1), ((1,),), 1, 1,
     (3, 5, 7, 11), lambda orb, q: fc.count_nonorientable(1, [orb], q, 1)),
    ("nonorientable r=2, n=1", nonorientable(2, 1), ((1,),), 1, 1,
     (3, 5, 7, 11), lambda orb, q: fc.count_nonorientable(2, [orb], q, 1)),
    ("nonorientable r=3, n=1", nonorientable(3, 1), ((1,),), 1, 1,
     (3, 5, 7, 11), lambda orb, q: fc.count_nonorientable(3, [orb], q, 1)),
    ("nonorientable r=1, n=2, zeta=-1", nonorientable(1, 1), ((2,),), 2, -1,
     (3, 5, 7, 11, 13), lambda orb, q: fc.count_nonorientable(1, [orb], q, 2)),
    ("nonorientable r=2, n=2, zeta=-1", nonorientable(2, 1), ((2,),), 2, -1,
     (3, 5, 7, 11, 13), lambda orb, q: fc.count_nonorientable(2, [orb], q, 2)),
    ("nonorientable r=3, n=2, zeta=-1", nonorientable(3, 1), ((2,),), 2, -1,
     (3, 5, 7, 11, 13), lambda orb, q: fc.count_nonorientable(3, [orb], q, 2)),
    ("orientable g=1, n=2, zeta=-1", orientable(1, 1), ((2,),), 2, -1,
     (3, 5, 7, 11, 13), lambda orb, q: fc.count_orientable(1, [orb], q, 2)),
    ("orientable g=2, n=2, zeta=-1", orientable(2, 1), ((2,),), 2, -1,
     (3, 5, 7, 11), lambda orb, q: fc.count_orientable(2, [orb], q, 2)),
]

mismatches = 0
print(f"{'case':38} {'q':>3} {'brute force':>12} {'formula':>10}  match")
for label, surface, mus, n, zeta, primes, counter in ROWS:
    formula = eseries(surface, mus).value
    for q in primes:
        orb = fc.FqOrbit.central(zeta, n, q)
        rep = counter(orb, q)
        want = formula.eval({"q": Fraction(q)})
        ok = rep.groupoid_count == want
        mismatches += not ok
        print(f"{label:38} {q:>3} {str(rep.groupoid_count):>12} "
              f"{str(want):>10}  {'ok' if ok else 'MISMATCH'}")
sys.exit(1 if mismatches else 0)
