"""Truncated ring of functions symmetric in each of k alphabets.

Elements are stored in the power-sum basis: a sparse map from k-tuples of
partitions (one per alphabet, each of size <= N) to RatFunc coefficients,
the key (lam_1, ..., lam_k) standing for p_lam_1(x_1) ... p_lam_k(x_k).
In that basis a product merges partitions, one term per pair of keys, and
the p_r plethysm multiplies every part by r and dilates the exponents of
the coefficients.  Truncation drops any component whose degree in some
alphabet exceeds N.

The m, h, e and s bases are views.  `to_basis` and `from_basis` change
basis alphabet by alphabet through the m basis: a degree-n symmetric
function is faithfully represented by its expansion in n concrete
variables, which gives every basis -> m table (exact Fraction arithmetic),
and per-degree matrix inversion gives the m -> basis tables.  Coefficient
lookup, the Hall pairing against h and the text form read the m view.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .exactalg import RatFunc, ONE, ZERO
from . import partitions as pt

BASES = ("m", "h", "e", "p", "s")


# -- concrete expansions in n variables (exponent tuple -> Fraction) --------

def _poly_mul(d1, d2):
    out = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _p_vars(r, nvars):
    out = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = r
        out[tuple(e)] = Fraction(1)
    return out


def _h_vars(r, nvars):
    out = {}
    for combo in itertools.combinations_with_replacement(range(nvars), r):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out[tuple(e)] = Fraction(1)
    return out


def _e_vars(r, nvars):
    out = {}
    for combo in itertools.combinations(range(nvars), r):
        e = [0] * nvars
        for i in combo:
            e[i] = 1
        out[tuple(e)] = Fraction(1)
    return out


def _vars_to_m(poly):
    """Read m-basis coefficients off a symmetric polynomial expansion."""
    out = {}
    for e, c in poly.items():
        lam = tuple(sorted((x for x in e if x), reverse=True))
        if e == lam + (0,) * (len(e) - len(lam)):
            out[lam] = c
    return out


def _perm_sign(perm):
    sign, seen = 1, set()
    for i in range(len(perm)):
        if i in seen:
            continue
        j, clen = i, 0
        while j not in seen:
            seen.add(j)
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def basis_to_m(basis, lam):
    """Expansion of a single-alphabet basis element into the m basis.

    Returns a dict partition -> Fraction for basis in {m, h, e, p, s}.
    """
    lam = tuple(lam)
    n = sum(lam)
    if basis == "m":
        return {lam: Fraction(1)}
    if n == 0:
        return {(): Fraction(1)}
    nvars = n
    if basis in ("p", "h", "e"):
        gen = {"p": _p_vars, "h": _h_vars, "e": _e_vars}[basis]
        poly = {(0,) * nvars: Fraction(1)}
        for part in lam:
            poly = _poly_mul(poly, gen(part, nvars))
        return _vars_to_m(poly)
    if basis == "s":
        # Jacobi-Trudi: s_lam = det(h_{lam_i - i + j})
        ell = len(lam)
        total = {}
        for perm in itertools.permutations(range(ell)):
            degs = [lam[i] - i + perm[i] for i in range(ell)]
            if any(d < 0 for d in degs):
                continue
            sign = _perm_sign(perm)
            poly = {(0,) * nvars: Fraction(1)}
            for d in degs:
                if d:
                    poly = _poly_mul(poly, _h_vars(d, nvars))
            for e, c in poly.items():
                s = total.get(e, 0) + sign * c
                if s:
                    total[e] = s
                else:
                    total.pop(e, None)
        return _vars_to_m(total)
    raise ValueError(f"unknown basis {basis!r}")


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
def _table(src, dst, lam):
    """src_lam expanded in the dst basis, through the m basis."""
    out = {}
    for nu, a in basis_to_m(src, lam).items():
        for mu, b in m_to_basis_table(dst, sum(lam))[nu].items():
            out[mu] = out.get(mu, 0) + a * b
    return {mu: c for mu, c in out.items() if c}


def _transform(coeffs, src, dst):
    """Per-alphabet linear change of basis of a dict key -> RatFunc.

    Accumulated sums are gcd-reduced on the fly; adding rational
    functions with unrelated denominators blows up otherwise.
    """
    out = {}
    for key, c in coeffs.items():
        tables = [_table(src, dst, mu) for mu in key]
        for combo in itertools.product(*(d.items() for d in tables)):
            newkey = tuple(mu for mu, _ in combo)
            term = c * math.prod(f for _, f in combo)
            prev = out.get(newkey)
            s = term if prev is None else (prev + term).simplified()
            if s.is_zero():
                out.pop(newkey, None)
            else:
                out[newkey] = s
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
    """Element of the truncated ring, stored in the power-sum basis."""

    __slots__ = ("k", "N", "coeffs")

    def __init__(self, k, N, coeffs=None):
        self.k = k
        self.N = N
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
        """The m_key coefficient."""
        return self.to_basis("m").get(tuple(tuple(mu) for mu in key), ZERO)

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
            s = out.get(key, ZERO) + c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
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
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                if any(sum(a) + sum(b) > self.N for a, b in zip(k1, k2)):
                    continue
                key = tuple(tuple(sorted(a + b, reverse=True))
                            for a, b in zip(k1, k2))
                s = out.get(key, ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return SymFunc(self.k, self.N, out)

    __rmul__ = __mul__

    def map_coefficients(self, fn):
        """Apply fn to every coefficient.  fn must commute with rational
        linear combinations, as a substitution or an evaluation does, so
        that the result does not depend on the basis the ring stores."""
        return SymFunc(self.k, self.N,
                       {key: fn(c) for key, c in self.coeffs.items()})

    def simplified(self):
        return self.map_coefficients(lambda c: c.simplified())

    # -- basis changes -------------------------------------------------------

    def to_basis(self, basis):
        """Coefficients of self in the given basis (dict key -> RatFunc)."""
        return _transform(self.coeffs, "p", basis)

    @staticmethod
    def from_basis(basis, coeffs, k, N):
        """Assemble from a dict key -> RatFunc of coefficients in `basis`."""
        return SymFunc(k, N, _transform(coeffs, basis, "p"))

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
    if any(sum(mu) > N for mu in mus):
        raise ValueError("degree exceeds truncation bound N")
    return SymFunc.from_basis(basis, {mus: ONE}, k, N)


def hall_pair_h(f, mus):
    """<f, h_mus> under the Hall form: the m_mus coefficient of f."""
    mus = tuple(tuple(mu) for mu in mus)
    if any(sum(mu) > f.N for mu in mus):
        raise ValueError("degree exceeds truncation bound N")
    return f.coefficient(mus)


def plethysm_pr(r, f):
    """p_r plethysm: p_m -> p_{rm} per alphabet, variables to their r-th power."""
    if r < 1:
        raise ValueError("r must be >= 1")
    out = {}
    for key, c in f.coeffs.items():
        newkey = tuple(tuple(r * part for part in mu) for mu in key)
        if all(sum(mu) <= f.N for mu in newkey):
            out[newkey] = c.scale_exponents(r)
    return SymFunc(f.k, f.N, out)


def ple_exp(f):
    """Plethystic exponential Exp(f) = exp(sum_r (p_r o f)/r), truncated."""
    if not f.constant_term().is_zero():
        raise ValueError("ple_exp needs zero constant term")
    g = SymFunc.zero(f.k, f.N)
    for r in range(1, f.k * f.N + 1):
        term = plethysm_pr(r, f)
        if not term.is_zero():
            g = g + term.scale(Fraction(1, r))
    out = SymFunc.one(f.k, f.N)
    power = SymFunc.one(f.k, f.N)
    for j in range(1, f.k * f.N + 1):
        # reduce after each power: the unreduced denominators otherwise
        # grow multiplicatively with j and dominate the whole computation
        power = (power * g).scale(Fraction(1, j)).simplified()
        if power.is_zero():
            break
        out = (out + power).simplified()
    return out


def ple_log(om):
    """Plethystic logarithm: the inverse of ple_exp on series with constant 1."""
    if not om.constant_term() == ONE:
        raise ValueError("ple_log needs constant term exactly 1")
    a = om - SymFunc.one(om.k, om.N)
    # formal log(1 + a)
    log_om = SymFunc.zero(om.k, om.N)
    power = SymFunc.one(om.k, om.N)
    sign = 1
    for j in range(1, om.k * om.N + 1):
        # same progressive reduction as in ple_exp
        power = (power * a).simplified()
        if power.is_zero():
            break
        log_om = (log_om + power.scale(Fraction(sign, j))).simplified()
        sign = -sign
    out = SymFunc.zero(om.k, om.N)
    for r in range(1, om.k * om.N + 1):
        mu = _mobius(r)
        if mu == 0:
            continue
        term = plethysm_pr(r, log_om)
        if term.is_zero():
            continue
        out = out + term.scale(Fraction(mu, r))
    return out
