"""Tabulate brute-force groupoid counts over F_q against the E-series
formula values at the same primes.

Each row counts one tuple of orbits, one orbit per row of mu with that
row as its eigenvalue multiplicities: the first generic tuple in
lexicographic eigenvalue order, so that the formula is claimed.  The row
prints the tuple it picked; diag(12, 12) is the central orbit -1 * I of
GL_2(F_13).

Run:  python3 demos/point_count_comparison.py
Exits 1 if any row is a MISMATCH.
"""

import itertools
import sys
from fractions import Fraction

from charstacks import ffcount as fc
from charstacks.charstack import eseries, is_generic, nonorientable, orientable

ROWS = [
    # (surface, mu, primes)
    (nonorientable(1, 1), ((1,),), (3, 5, 7, 11)),
    (nonorientable(2, 1), ((1,),), (3, 5, 7, 11)),
    (nonorientable(3, 1), ((1,),), (3, 5, 7, 11)),
    (nonorientable(1, 1), ((2,),), (3, 5, 7, 11, 13)),
    (nonorientable(2, 1), ((2,),), (3, 5, 7, 11, 13)),
    (nonorientable(3, 1), ((2,),), (3, 5, 7, 11, 13)),
    (orientable(1, 1), ((2,),), (3, 5, 7, 11, 13)),
    (orientable(2, 1), ((2,),), (3, 5, 7, 11)),
    (nonorientable(1, 1), ((1, 1),), (5, 7, 11, 13)),
    (nonorientable(2, 1), ((1, 1),), (5, 7, 11, 13)),
    (orientable(1, 1), ((1, 1),), (5, 7, 11, 13)),
    (nonorientable(1, 2), ((1, 1), (1, 1)), (5, 7, 11, 13)),
    (nonorientable(1, 2), ((2,), (1, 1)), (5, 7, 11, 13)),
]


def first_generic(mus, q):
    """The first generic tuple of orbits, one per row of mus with that row
    as its eigenvalue multiplicities, in lexicographic eigenvalue order."""
    choices = [[fc.FqOrbit.split(list(zip(vals, mu)), q)
                for vals in itertools.permutations(range(1, q), len(mu))]
               for mu in mus]
    return next(list(orbits) for orbits in itertools.product(*choices)
                if is_generic([o.as_angles() for o in orbits])[0])


def label(surface, mus):
    copies = (f"r={surface.r}" if surface.kind == "nonorientable"
              else f"g={surface.g}")
    rows = "|".join("(" + ",".join(map(str, mu)) + ")" for mu in mus)
    return f"{surface.kind} {copies}, mu={rows}"


def diag(orbit):
    return "diag(" + ", ".join(str(v) for v, m in orbit.eigenvalues
                               for _ in range(m)) + ")"


mismatches = 0
print(f"{'case':34} {'q':>3} {'orbits':26} {'brute force':>12} "
      f"{'formula':>10}  match")
for surface, mus, primes in ROWS:
    for q in primes:
        orbits = first_generic(mus, q)
        formula = eseries(surface, mus, [o.as_angles() for o in orbits])
        if surface.kind == "nonorientable":
            rep = fc.count_nonorientable(surface.r, orbits)
        else:
            rep = fc.count_orientable(surface.g, orbits)
        want = formula.value.eval({"q": Fraction(q)})
        ok = rep.groupoid_count == want
        mismatches += not ok
        print(f"{label(surface, mus):34} {q:>3} "
              f"{' '.join(map(diag, orbits)):26} "
              f"{str(rep.groupoid_count):>12} {str(want):>10}  "
              f"{'ok' if ok else 'MISMATCH'}")
sys.exit(1 if mismatches else 0)
