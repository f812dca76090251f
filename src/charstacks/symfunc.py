"""Truncated ring of functions symmetric in each of k alphabets.

Elements are stored in the power-sum basis: a sparse map from k-tuples of
partitions to RatFunc coefficients, the key (lam_1, ..., lam_k) standing
for p_lam_1(x_1) ... p_lam_k(x_k).  In that basis a product merges
partitions, one term per pair of keys, and the p_r plethysm multiplies
every part by r and dilates the exponents of the coefficients.

Truncation has one rule.  The bound N is one partition beta_i per
alphabet, and a key is kept iff each lam_i fits beta_i: the parts of
lam_i split into len(beta_i) groups, group j summing to at most
beta_i[j] (`fits`).  An int N stands for the row bound ((N,),) * k, under
which fitting is |lam_i| <= N.  The keys that do not fit span an ideal:
if the union of two partitions fits, both fit; if r*lam fits, lam fits.
So a product or a plethysm never reads a dropped key, and the ring is the
quotient by that ideal.  Under the bound mu this is truncation at the
monomial x^mu in len(mu_i) variables per alphabet.

The m, h, e and s bases are views.  `to_basis` and `from_basis` change
basis alphabet by alphabet through the m basis.  The basis -> m tables
are counts (exact Fractions): Kostka numbers give the s rows and, by
Young's rule, the h and e rows, and the ways to distribute the parts of
lam over rows give the p rows.  Per-degree matrix inversion gives the
m -> basis tables.  Coefficient lookup, the Hall pairing against h and the
text form read the m view.  The m coefficient at a fitting key reads only
p keys that refine it, which fit too, so the m view is exact at every key
that fits and holds only those keys.  The s, h and e coefficients read p
keys outside the ideal, so those views need a row bound.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .exactalg import RatFunc, ONE, ZERO
from . import partitions as pt


@lru_cache(maxsize=None)
def _kostka(lam, nu):
    """K_{lam,nu}, the number of semistandard tableaux of shape lam and
    content nu.  The cells holding the largest letter form a horizontal
    strip lam/kappa of nu[-1] cells, and the rest is a tableau of shape
    kappa and content nu[:-1]."""
    if not nu:
        return int(not lam)
    strips = itertools.product(
        *(range(low, part + 1) for part, low in zip(lam, lam[1:] + (0,))))
    size = sum(lam) - nu[-1]
    return sum(_kostka(tuple(x for x in kappa if x), nu[:-1])
               for kappa in strips if sum(kappa) == size)


@lru_cache(maxsize=None)
def fits(lam, rows):
    """Whether the parts of lam split into len(rows) groups, group j
    summing to at most rows[j].  Both are partitions, and the largest part
    goes first into each distinct row that can take it."""
    if sum(lam) > sum(rows):
        return False
    if not lam or len(rows) == 1:
        return True
    first = lam[0]
    return any(
        fits(lam[1:], tuple(x for x in sorted(
            rows[:j] + (rows[j] - first,) + rows[j + 1:], reverse=True) if x))
        for j in range(len(rows))
        if rows[j] >= first and (j == 0 or rows[j] != rows[j - 1]))


def _fits_key(key, bound):
    return all(fits(lam, rows) for lam, rows in zip(key, bound))


def _bound(k, N):
    """The bound as one partition per alphabet; an int N is ((N,),) * k."""
    if isinstance(N, int):
        return ((N,),) * k
    bound = tuple(tuple(rows) for rows in N)
    if len(bound) != k:
        raise ValueError("one bound partition per alphabet required")
    return bound


@lru_cache(maxsize=None)
def _part_assignments(lam, rows):
    """[m_rows] p_lam: the ways to put each part of lam into one row so
    that row j sums to rows[j]."""
    if not lam:
        return int(not any(rows))
    first = lam[0]
    return sum(_part_assignments(lam[1:],
                                 rows[:j] + (rows[j] - first,) + rows[j + 1:])
               for j in range(len(rows)) if rows[j] >= first)


def basis_to_m(basis, lam):
    """Expansion of a single-alphabet basis element into the m basis.

    Returns a dict partition -> Fraction for basis in {m, h, e, p, s}.
    [m_nu] p_lam counts part assignments and [m_nu] s_lam = K_{lam,nu}.
    Young's rule h_lam = sum_kappa K_{kappa,lam} s_kappa, and its image
    e_lam = sum_kappa K_{kappa',lam} s_kappa under omega, give the h and e
    rows (Macdonald, Symmetric Functions and Hall Polynomials, I.6).
    """
    lam = tuple(lam)
    if basis == "m":
        return {lam: Fraction(1)}
    parts = pt.enumerate_partitions(sum(lam))
    if basis == "p":
        row = [_part_assignments(lam, nu) for nu in parts]
    elif basis == "s":
        row = [_kostka(lam, nu) for nu in parts]
    elif basis in ("h", "e"):
        flip = pt.conjugate if basis == "e" else (lambda kappa: kappa)
        row = [sum(_kostka(flip(kappa), lam) * _kostka(kappa, nu)
                   for kappa in parts) for nu in parts]
    else:
        raise ValueError(f"unknown basis {basis!r}")
    # Fraction, not int: _invert divides by these entries
    return {nu: Fraction(c) for nu, c in zip(parts, row) if c}


def _invert(matrix):
    """Inverse of a square Fraction matrix (Gauss-Jordan)."""
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def m_to_basis_table(basis, n):
    """Tables expressing each m_mu of degree n in the given basis."""
    parts = pt.enumerate_partitions(n)
    mat = [[basis_to_m(basis, lam).get(mu, Fraction(0)) for mu in parts]
           for lam in parts]
    inv = _invert(mat)
    # m_mu = sum_lam inv[j][i] * basis_lam  where j indexes mu, i indexes lam
    return {mu: {lam: inv[j][i] for i, lam in enumerate(parts) if inv[j][i]}
            for j, mu in enumerate(parts)}


@lru_cache(maxsize=None)
def _table(src, dst, lam, rows):
    """src_lam expanded in the dst basis, through the m basis, on the dst
    partitions that fit rows."""
    out = {}
    for nu, a in basis_to_m(src, lam).items():
        for mu, b in m_to_basis_table(dst, sum(lam))[nu].items():
            out[mu] = out.get(mu, 0) + a * b
    return tuple((mu, c) for mu, c in out.items() if c and fits(mu, rows))


def _transform(coeffs, src, dst, bound):
    """Per-alphabet linear change of basis of a dict key -> RatFunc, on
    the dst keys that fit the bound."""
    if {src, dst} - {"m", "p"} and any(len(rows) > 1 for rows in bound):
        raise ValueError(
            f"the {src} -> {dst} change of basis reads keys outside the "
            f"truncation bound {bound}: it needs a bound of rows")
    parts = {}
    for key, c in coeffs.items():
        tables = [_table(src, dst, mu, rows) for mu, rows in zip(key, bound)]
        for combo in itertools.product(*tables):
            newkey = tuple(mu for mu, _ in combo)
            parts.setdefault(newkey, []).append(
                c * math.prod(f for _, f in combo))
    out = {key: RatFunc.sum(cs) for key, cs in parts.items()}
    return {key: c for key, c in out.items() if not c.is_zero()}


def _mobius(n):
    m, p, out = n, 2, 1
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


# -- the SymFunc container ---------------------------------------------------

class SymFunc:
    """Element of the truncated ring, stored in the power-sum basis.

    N is the truncation bound, stored as one partition per alphabet; an
    int N passed in stands for the row bound ((N,),) * k."""

    __slots__ = ("k", "N", "coeffs")

    def __init__(self, k, N, coeffs=None):
        self.k = k
        self.N = _bound(k, N)
        self.coeffs = {}
        if coeffs:
            for key, c in coeffs.items():
                if not c.is_zero():
                    self.coeffs[key] = c

    @staticmethod
    def zero(k, N):
        return SymFunc(k, N)

    @staticmethod
    def one(k, N):
        return SymFunc(k, N, {((),) * k: ONE})

    def _check_compat(self, other):
        if (self.k, self.N) != (other.k, other.N):
            raise ValueError("incompatible alphabets or truncation bounds")

    def is_zero(self):
        return not self.coeffs

    def constant_term(self):
        return self.coeffs.get(((),) * self.k, ZERO)

    def coefficient(self, key):
        """The m_key coefficient; key has one partition per alphabet, and
        must fit the bound for the coefficient to be exact."""
        key = tuple(tuple(mu) for mu in key)
        if len(key) != self.k:
            raise ValueError("one partition per alphabet required")
        if not _fits_key(key, self.N):
            raise ValueError(f"key {key} does not fit the truncation bound "
                             f"{self.N}")
        return self.to_basis("m").get(key, ZERO)

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if (self.k, self.N) != (other.k, other.N):
            return False
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[key] == other.coeffs[key] for key in self.coeffs)

    def __add__(self, other):
        self._check_compat(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, ZERO) + c
        return SymFunc(self.k, self.N, out)

    def __neg__(self):
        return SymFunc(self.k, self.N, {key: -c for key, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply by a RatFunc (or int/Fraction) scalar."""
        c = RatFunc._coerce(c)
        if c.is_zero():
            return SymFunc.zero(self.k, self.N)
        return SymFunc(self.k, self.N,
                       {key: c * v for key, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            return self.scale(other)
        self._check_compat(other)
        parts = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                key = tuple(tuple(sorted(a + b, reverse=True))
                            for a, b in zip(k1, k2))
                if not _fits_key(key, self.N):
                    continue
                parts.setdefault(key, []).append(c1 * c2)
        return SymFunc(self.k, self.N,
                       {key: RatFunc.sum(cs) for key, cs in parts.items()})

    __rmul__ = __mul__

    def map_coefficients(self, fn):
        """Apply fn to every coefficient.  fn must commute with rational
        linear combinations, as a substitution or an evaluation does, so
        that the result does not depend on the basis the ring stores."""
        return SymFunc(self.k, self.N,
                       {key: fn(c) for key, c in self.coeffs.items()})

    # -- basis changes -------------------------------------------------------

    def to_basis(self, basis):
        """Coefficients of self in the given basis (dict key -> RatFunc)."""
        return _transform(self.coeffs, "p", basis, self.N)

    @staticmethod
    def from_basis(basis, coeffs, k, N):
        """Assemble from a dict key -> RatFunc of coefficients in `basis`."""
        N = _bound(k, N)
        return SymFunc(k, N, _transform(coeffs, basis, "p", N))

    # -- text form (m basis) ---------------------------------------------------

    def text(self):
        m = self.to_basis("m")
        lines = []
        for key in sorted(m):
            mus = "|".join(pt.partition_text(mu) for mu in key)
            lines.append(f"{mus} : {m[key].text()}")
        return "\n".join(lines)

    @staticmethod
    def parse(s, k, N):
        coeffs = {}
        for line in s.splitlines():
            line = line.strip()
            if not line:
                continue
            left, _, right = line.partition(" : ")
            key = tuple(pt.parse_partition(x) for x in left.split("|"))
            coeffs[key] = RatFunc.parse(right)
        return SymFunc.from_basis("m", coeffs, k, N)

    def __repr__(self):
        return f"SymFunc(k={self.k}, N={self.N},\n{self.text()})"


def basis_element(basis, mus, k=None, N=None):
    """The named basis element b_mu1(x_1) * ... * b_muk(x_k)."""
    mus = tuple(tuple(mu) for mu in mus)
    if k is None:
        k = len(mus)
    if len(mus) != k:
        raise ValueError("one partition per alphabet required")
    if N is None:
        N = max((sum(mu) for mu in mus), default=1) or 1
    if not _fits_key(mus, _bound(k, N)):
        raise ValueError(f"{mus} does not fit the truncation bound {N}")
    return SymFunc.from_basis(basis, {mus: ONE}, k, N)


def hall_pair_h(f, mus):
    """<f, h_mus> under the Hall form: the m_mus coefficient of f."""
    return f.coefficient(mus)


def plethysm_pr(r, f):
    """p_r plethysm: p_m -> p_{rm} per alphabet, variables to their r-th power."""
    if r < 1:
        raise ValueError("r must be >= 1")
    out = {}
    for key, c in f.coeffs.items():
        newkey = tuple(tuple(r * part for part in mu) for mu in key)
        if _fits_key(newkey, f.N):
            out[newkey] = c.scale_exponents(r)
    return SymFunc(f.k, f.N, out)


def _series(a, weight):
    """sum_{j>=1} weight(j) a^j, truncated.  a has zero constant term, so
    a^j vanishes once j exceeds the total size of the bound."""
    parts = {}
    power = SymFunc.one(a.k, a.N)
    for j in range(1, sum(map(sum, a.N)) + 1):
        power = power * a
        if power.is_zero():
            break
        for key, c in power.scale(weight(j)).coeffs.items():
            parts.setdefault(key, []).append(c)
    return SymFunc(a.k, a.N,
                   {key: RatFunc.sum(cs) for key, cs in parts.items()})


def _adams(f, weight):
    """sum_{r>=1} weight(r) (p_r o f), truncated.  f has zero constant term,
    so p_r o f vanishes once r exceeds the largest row of the bound."""
    parts = {}
    for r in range(1, max((rows[0] for rows in f.N if rows), default=0) + 1):
        w = weight(r)
        if w:
            for key, c in plethysm_pr(r, f).scale(w).coeffs.items():
                parts.setdefault(key, []).append(c)
    return SymFunc(f.k, f.N,
                   {key: RatFunc.sum(cs) for key, cs in parts.items()})


def ple_exp(f):
    """Plethystic exponential Exp(f) = exp(sum_r (p_r o f)/r), truncated."""
    if not f.constant_term().is_zero():
        raise ValueError("ple_exp needs zero constant term")
    g = _adams(f, lambda r: Fraction(1, r))
    return SymFunc.one(f.k, f.N) + _series(
        g, lambda j: Fraction(1, math.factorial(j)))


def ple_log(om):
    """Plethystic logarithm, the inverse of ple_exp on series with constant
    1: Mobius inversion of the Adams sum applied to log(om)."""
    if not om.constant_term() == ONE:
        raise ValueError("ple_log needs constant term exactly 1")
    log_om = _series(om - SymFunc.one(om.k, om.N),
                     lambda j: Fraction((-1) ** (j + 1), j))
    return _adams(log_om, lambda r: Fraction(_mobius(r), r))
