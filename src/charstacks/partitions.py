"""Integer partitions, multipartitions, and cell statistics.

Partitions are plain tuples of weakly decreasing positive integers (the
empty tuple is the empty partition).  Diagrams use the English convention:
row 1 is the longest, rows go downward; the arm of a cell counts cells
strictly to its right, the leg cells strictly below.  Cells are 1-based
(i, j) pairs, and `hooks` lists each with its arm and leg.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import index


def check_partition(lam):
    lam = tuple(map(index, lam))
    if any(x < 1 for x in lam):
        raise ValueError(f"partition parts must be >= 1: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {lam}")
    return lam


@lru_cache(maxsize=None)
def enumerate_partitions(n):
    """All partitions of n, in reverse lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = []

    def rec(rest, maxpart, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(rest, maxpart), 0, -1):
            prefix.append(p)
            rec(rest - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


def hooks(lam):
    """(cell, arm, leg) for every cell of lam, row by row: the cell (i, j)
    has arm lam_i - j and leg lam'_j - i."""
    conj = conjugate(lam)
    return [((i, j), part - j, conj[j - 1] - i)
            for i, part in enumerate(lam, start=1)
            for j in range(1, part + 1)]


def conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def zlambda(lam):
    """z_lambda = prod_i i^{m_i} m_i! (order of the centralizer in S_n)."""
    z = 1
    for part, group in itertools.groupby(lam):
        m = len(list(group))
        z *= part**m * math.factorial(m)
    return z


def nstat(lam):
    """n(lambda) = sum (i-1) * lambda_i."""
    return sum(i * part for i, part in enumerate(lam))


def check_multipartition(mus):
    """A multipartition: k >= 1 partitions of one common size n >= 1."""
    mus = tuple(check_partition(mu) for mu in mus)
    if not mus:
        raise ValueError("multipartition needs at least one component")
    n = sum(mus[0])
    if n == 0:
        raise ValueError(f"components must have size >= 1: {mus}")
    if any(sum(mu) != n for mu in mus):
        raise ValueError(f"components must have equal size: {mus}")
    return mus


def partition_text(lam):
    return "(" + ",".join(str(p) for p in lam) + ")"


def parse_partition(s):
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    s = s.strip()
    if not s:
        return ()
    return check_partition(tuple(int(x) for x in s.split(",")))
