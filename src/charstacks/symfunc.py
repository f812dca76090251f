"""Truncated ring of functions symmetric in each of k alphabets.

Elements are stored in the basis dual to the power sums, P_lam =
p_lam / z_lam: a sparse map from k-tuples of partitions to RatFunc
coefficients, the key (lam_1, ..., lam_k) standing for P_lam_1(x_1) ...
P_lam_k(x_k).  Three facts make that basis the one to store
(Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed., I.2-I.4
and I.8):

  * every integral symmetric function has integral coefficients, since
    the P_lam coefficient of f is <f, p_lam> = sum_nu [m_nu]f [h_nu]p_lam
    and p_lam lies in Z[h];
  * a product merges partitions, one term per pair of keys, times the
    integer z_(a u b) / (z_a z_b) = prod_i C(m_i(a) + m_i(b), m_i(a));
  * the p_r plethysm multiplies every part by r and dilates the exponents
    of the coefficients, times r^len(lam), since z_(r lam) = r^len(lam)
    z_lam.

So H~_mu, Omega and their products run on integer coefficients, and
rationals enter only through the weights of the plethystic Log and the
views.  Every coefficient sum, of a sum, a product, a view or the Log,
is one `_sum_terms`: it brings the rational weights of each key to their
lcm, so those weights too enter over integer numerators.  A coefficient
of weight 1 at a key whose lcm is 1 is summed as it is, and `RatFunc.sum`
groups its addends by denominator and keeps a marked addend that is alone
over its denominator as it is, so a value already in lowest terms is not
reduced again; the Exp and Log series still start their powers at a, not
at the product 1 * a, which saves the product.

Truncation has one rule.  The bound N is one partition beta_i per
alphabet, and a key is kept iff each lam_i fits beta_i: lam_i, padded
with parts 1, fills the rows of beta_i exactly, i.e.
[m_beta_i] p_lam_i * p_1^(|beta_i| - |lam_i|) != 0 (`fits`).  An int N
stands for the row bound ((N,),) * k, under which fitting is
|lam_i| <= N.  Cutting a part into a smaller part and parts 1 keeps a
filling, so the keys that do not fit span an ideal: if the union of two
partitions fits, both fit; if r*lam fits, lam fits.  So a product or a
plethysm never reads a dropped key, and the ring is the quotient by that
ideal.  Under the bound mu this is truncation at the monomial x^mu in
len(mu_i) variables per alphabet.

The p, m, h, e and s bases are views, read off the Hall form with no
matrix inversion.  A basis element is b_lam = sum_nu <b_lam, p_nu> P_nu,
and `_stored` gives these integer coordinates: z_lam on the diagonal for
p; for h, `_part_assignments`, the count that `fits` reads; for e, that
count times omega's sign; for m, a triangular solve; for s, the Kostka
numbers times the m rows.  A view reads the dual basis b* the other way
round, [b_mu] P_nu = <b*_mu, p_nu> / z_nu, with m and h dual, s
self-dual, p dual to P and e dual to omega(m).  `_table` does both and
keeps an integral entry as an int, so the weights that `_sum_terms`
brings to their lcm stay on int arithmetic.  Coefficient lookup, the
Hall pairing against h and the text form read the m view, [m_mu] P_nu =
[m_mu] p_nu / z_nu, so the truncation, the m view and the Hall pairing
all read that one count.  The m coefficient at a fitting key reads only
keys that refine it, which fit too, so the m view is exact at every key
that fits and holds only those keys.  The s, h and e coefficients read
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
    summing to at most rows[j]: lam padded with parts 1 fills rows
    exactly, i.e. [m_rows] p_lam * p_1^(|rows| - |lam|) != 0."""
    slack = sum(rows) - sum(lam)
    return slack >= 0 and _part_assignments(lam + (1,) * slack, rows) > 0


def _fits_key(key, bound):
    return all(map(fits, key, bound))


def _checked_key(key, bound):
    """key as one partition per alphabet, each read by check_partition;
    refused unless it has one per alphabet and fits the bound."""
    return _fitting_key(tuple(map(pt.check_partition, key)), bound)


def _fitting_key(key, bound):
    """key, refused unless it has one partition per alphabet and fits the
    bound; its partitions are taken as given."""
    if len(key) != len(bound):
        raise ValueError("one partition per alphabet required")
    if not _fits_key(key, bound):
        raise ValueError(f"key {key} does not fit the truncation bound "
                         f"{bound}")
    return key


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


# the stored basis P_lam = p_lam / z_lam, as a name for the basis tables
STORED = "p/z"


@lru_cache(maxsize=None)
def _merge(a, b):
    """The union of partitions a and b, and the integer z_(a u b) /
    (z_a z_b) by which P_a P_b = p_(a u b) / (z_a z_b) is a multiple of
    P_(a u b)."""
    union = tuple(sorted(a + b, reverse=True))
    return union, pt.zlambda(union) // (pt.zlambda(a) * pt.zlambda(b))


def _omega(basis, nu):
    """For the e basis omega's sign on p_nu, (-1)^(|nu| - len(nu)); else 1."""
    return -1 if basis == "e" and (sum(nu) - len(nu)) % 2 else 1


@lru_cache(maxsize=None)
def _stored(basis, lam):
    """The stored coordinates of a single-alphabet basis element: the dict
    nu -> <b_lam, p_nu> of nonzero ints, b_lam = sum_nu <b_lam, p_nu> P_nu.

    p_lam is z_lam P_lam; m is dual to h, so <h_lam, p_nu> = [m_lam] p_nu,
    and e_lam = omega(h_lam).  The rows of m solve the triangular system
    P_lam = sum_{mu >= lam} [m_mu] P_lam m_mu, whose coarser mu come first
    in `enumerate_partitions` order, and s_lam = sum_mu K_{lam,mu} m_mu
    (Macdonald, Symmetric Functions and Hall Polynomials, I.4 and I.6).
    """
    parts = pt.enumerate_partitions(sum(lam))
    if basis in ("p", STORED):
        return {lam: pt.zlambda(lam) if basis == "p" else 1}
    if basis in ("h", "e"):
        row = {nu: _omega(basis, nu) * _part_assignments(nu, lam)
               for nu in parts}
    elif basis == "m":
        # [m_lam] p_lam m_lam = z_lam P_lam - sum_(mu > lam) [m_mu] p_lam m_mu
        row = _m_sum((mu, -_part_assignments(lam, mu))
                     for mu in parts[:parts.index(lam)])
        row[lam] = pt.zlambda(lam)
        d = _part_assignments(lam, lam)
        row = {nu: c // d for nu, c in row.items()}
    elif basis == "s":
        row = _m_sum((mu, _kostka(lam, mu)) for mu in parts)
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return {nu: c for nu, c in row.items() if c}


def _m_sum(weights):
    """sum_mu w_mu m_mu in stored coordinates, over pairs (mu, w_mu)."""
    row = {}
    for mu, w in weights:
        if w:
            for nu, c in _stored("m", mu).items():
                row[nu] = row.get(nu, 0) + w * c
    return row


# the basis dual to each under the Hall form, e's dual omega(m) read as m
# times omega's sign; `_stored` refuses a name that is not here
_DUAL = {"m": "h", "h": "m", "e": "m", "s": "s", "p": STORED, STORED: "p"}


@lru_cache(maxsize=None)
def _table(src, dst, lam, rows):
    """src_lam expanded in the dst basis, on the dst partitions that fit
    rows; an integral entry is an int.  [dst_mu] P_nu = <dst*_mu, p_nu> /
    z_nu for the basis dst* dual to dst, so both sides read `_stored`."""
    out = []
    for mu in pt.enumerate_partitions(sum(lam)):
        if fits(mu, rows):
            dual = _stored(_DUAL.get(dst, dst), mu)
            c = sum(Fraction(a * _omega(dst, nu) * dual[nu], pt.zlambda(nu))
                    for nu, a in _stored(src, lam).items() if nu in dual)
            if c:
                out.append((mu, c.numerator if c.denominator == 1 else c))
    return tuple(out)


def _transform(coeffs, src, dst, bound):
    """Per-alphabet linear change of basis of a dict key -> RatFunc, on
    the dst keys that fit the bound."""
    if {src, dst} - {"m", "p", STORED} and any(len(rows) > 1
                                               for rows in bound):
        raise ValueError(
            f"the {src} -> {dst} change of basis reads keys outside the "
            f"truncation bound {bound}: it needs a bound of rows")
    return _sum_terms(
        (tuple(mu for mu, _ in combo), c, math.prod(f for _, f in combo))
        for key, c in coeffs.items()
        for combo in itertools.product(
            *(_table(src, dst, mu, rows) for mu, rows in zip(key, bound))))


def _sum_terms(terms):
    """sum c * f per key over triples (key, RatFunc c, rational f), each
    key's sum taken once.  Every f of a key is brought to the lcm L of
    that key's denominators, c * f = c.num * (f L) / (c.den L), so the
    numerators are summed on integer multiples; where f and L are both 1,
    c itself is summed, so a stored c keeps its mark.  Zero sums are
    dropped."""
    parts = {}
    for key, c, f in terms:
        parts.setdefault(key, []).append((c, f))
    out = {}
    for key, cfs in parts.items():
        L = math.lcm(*(f.denominator for _, f in cfs))
        total = RatFunc.sum(
            c if f == 1 and L == 1
            else RatFunc(c.num * (f * L).numerator, c.den * L)
            for c, f in cfs)
        if not total.is_zero():
            out[key] = total
    return out


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
    """Element of the truncated ring, stored in the basis p_lam / z_lam.

    N is the truncation bound, stored as one partition per alphabet; an
    int N passed in stands for the row bound ((N,),) * k.  A key of coeffs
    is refused unless it has one partition per alphabet and fits the
    bound; `from_basis` also reads each partition by check_partition."""

    __slots__ = ("k", "N", "coeffs")

    def __init__(self, k, N, coeffs=None):
        self.k = k
        self.N = _bound(k, N)
        self.coeffs = {}
        if coeffs:
            for key, c in coeffs.items():
                _fitting_key(key, self.N)
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
        key = _checked_key(key, self.N)
        # only keys whose partitions each fill the target row contribute
        reads = {k: c for k, c in self.coeffs.items()
                 if all(map(_part_assignments, k, key))}
        return SymFunc(self.k, self.N, reads).to_basis("m").get(key, ZERO)

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if (self.k, self.N) != (other.k, other.N):
            return False
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[key] == other.coeffs[key] for key in self.coeffs)

    def __add__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        self._check_compat(other)
        return SymFunc(self.k, self.N, _sum_terms(
            (key, c, 1) for f in (self, other) for key, c in f.coeffs.items()))

    def __neg__(self):
        return self.map_coefficients(lambda c: -c)

    def __sub__(self, other):
        return self.__add__(-other)

    def scale(self, c):
        """Multiply by a RatFunc, an MPoly or an exact scalar (int, bool or
        Fraction); anything else raises TypeError."""
        c = c if type(c) is RatFunc else RatFunc(c)
        return self.map_coefficients(lambda v: c * v)

    def __mul__(self, other):
        if not isinstance(other, SymFunc):
            c = RatFunc._coerce(other)
            return NotImplemented if c is None else self.scale(c)
        self._check_compat(other)
        terms = []
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                merged = [_merge(a, b) for a, b in zip(k1, k2)]
                key = tuple(union for union, _ in merged)
                if _fits_key(key, self.N):
                    terms.append((key, c1 * c2,
                                  math.prod(f for _, f in merged)))
        return SymFunc(self.k, self.N, _sum_terms(terms))

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
        return _transform(self.coeffs, STORED, basis, self.N)

    @staticmethod
    def from_basis(basis, coeffs, k, N):
        """Assemble from a dict key -> RatFunc of coefficients in `basis`;
        each key has one partition per alphabet and fits the bound."""
        N = _bound(k, N)
        coeffs = {_checked_key(key, N): c for key, c in coeffs.items()}
        return SymFunc(k, N, _transform(coeffs, basis, STORED, N))

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


def basis_element(basis, mus, k, N):
    """The named basis element b_mu1(x_1) * ... * b_muk(x_k)."""
    return SymFunc.from_basis(basis, {tuple(map(tuple, mus)): ONE}, k, N)


def hall_pair_h(f, mus):
    """<f, h_mus> under the Hall form: the m_mus coefficient of f."""
    return f.coefficient(mus)


def plethysm_pr(r, f):
    """p_r plethysm: p_m -> p_{rm} per alphabet, variables to their r-th
    power; in the stored basis P_lam -> r^len(lam) P_{r lam}."""
    if r < 1:
        raise ValueError("r must be >= 1")
    out = {}
    for key, c in f.coeffs.items():
        newkey = tuple(tuple(r * part for part in mu) for mu in key)
        if _fits_key(newkey, f.N):
            out[newkey] = c.scale_exponents(r) * r ** sum(map(len, key))
    return SymFunc(f.k, f.N, out)


def _series(a, weight):
    """sum_{j>=1} weight(j) a^j, truncated.  a has zero constant term, so
    a^j vanishes once j exceeds the total size of the bound.  The powers
    start at a itself, not at 1 * a, which would cost a product and leave
    every coefficient of a to be reduced again; every key is still summed
    by `_sum_terms`, so the result is in stored form whatever a's
    coefficients are, and a stored one that only a reaches is kept."""
    terms = []
    power = a
    for j in range(1, sum(map(sum, a.N)) + 1):
        if j > 1:
            power = power * a
        if power.is_zero():
            break
        terms += ((key, c, weight(j)) for key, c in power.coeffs.items())
    return SymFunc(a.k, a.N, _sum_terms(terms))


def _adams(f, weight):
    """sum_{r>=1} weight(r) (p_r o f), truncated.  f has zero constant term,
    so p_r o f vanishes once r exceeds the largest row of the bound.

    weight(1) is 1, for Exp and Log alike, so the r = 1 term is f itself,
    with no plethysm; a stored coefficient of f at a key that no r >= 2
    plethysm reaches passes through `_sum_terms` as it is."""
    terms = [(key, c, 1) for key, c in f.coeffs.items()]
    for r in range(2, max((rows[0] for rows in f.N if rows), default=0) + 1):
        w = weight(r)
        if w:
            terms += ((key, c, w)
                      for key, c in plethysm_pr(r, f).coeffs.items())
    return SymFunc(f.k, f.N, _sum_terms(terms))


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
