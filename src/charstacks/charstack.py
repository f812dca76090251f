"""Orbit/surface data, genericity, and the cohomology-series formulas.

Four series are computed from HH_{mu,m}(z,w):

  * nonorientable E-series:  q^(d/2)/(q-1)      * HH_{mu,r} (sqrt q, 1/sqrt q)
  * orientable E-series:     q^(d/2)/(q-1)      * HH_{mu,2g}(sqrt q, 1/sqrt q)
  * nonorientable mixed:     (qt^2)^(d/2)/(qt^2-1) * HH_{mu,r} (t sqrt q, -1/sqrt q)
  * orientable mixed:        same with m = 2g

sqrt(q) is realized as the variable u (positive branch; q = u**2) and
(qt^2)^(1/2) as t*u.  When d_mu is odd the q-presentation genuinely
involves sqrt(q); the report records that instead of rounding.

The formulas are only claimed for generic orbit tuples, but they are
computed regardless and the genericity verdict is embedded in the report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .exactalg import RatFunc, ONE, Q, T, U, u_to_q
from . import partitions as pt
from .hlvkernel import hlv_HH


# -- orbit and surface data ---------------------------------------------------

@dataclass(frozen=True)
class OrbitSpec:
    """Semisimple orbit: eigenvalues e^(2*pi*i*angle) with multiplicities."""
    eigenvalues: tuple  # of (Fraction angle in [0,1), int multiplicity >= 1)

    @staticmethod
    def make(pairs):
        eig = tuple((Fraction(a) % 1, int(m)) for a, m in pairs)
        if any(m < 1 for _, m in eig):
            raise ValueError("multiplicities must be >= 1")
        return OrbitSpec(eig)

    @staticmethod
    def central(angle, n):
        """The central orbit {e^(2*pi*i*angle) * I_n}."""
        return OrbitSpec.make([(angle, n)])

    @property
    def n(self):
        return sum(m for _, m in self.eigenvalues)

    def partition(self):
        """Multiplicities sorted decreasingly: the induced partition."""
        return tuple(sorted((m for _, m in self.eigenvalues), reverse=True))


@dataclass(frozen=True)
class SurfaceSpec:
    """Either a non-orientable surface (r cross-caps) or genus g, with k >= 1
    punctures."""
    kind: str  # "nonorientable" | "orientable"
    k: int
    r: int = None
    g: int = None

    def __post_init__(self):
        if self.kind == "nonorientable":
            if self.r is None or self.g is not None or self.r < 1:
                raise ValueError("nonorientable surface needs r >= 1 only")
        elif self.kind == "orientable":
            if self.g is None or self.r is not None or self.g < 0:
                raise ValueError("orientable surface needs g >= 0 only")
        else:
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def m(self):
        """The hook-function exponent: r, or 2g."""
        return self.r if self.kind == "nonorientable" else 2 * self.g

    def as_dict(self):
        d = {"kind": self.kind, "k": self.k}
        if self.kind == "nonorientable":
            d["r"] = self.r
        else:
            d["g"] = self.g
        return d


def nonorientable(r, k):
    return SurfaceSpec(kind="nonorientable", k=k, r=r)


def orientable(g, k):
    return SurfaceSpec(kind="orientable", k=k, g=g)


# -- genericity ---------------------------------------------------------------

def _submultiset_sums_exact(eigenvalues, v):
    """Achievable angle-sums over sub-multisets of size exactly v, with one
    witness choice per sum."""
    # dp over (count) -> {sum: witness}
    dp = {0: {Fraction(0): ()}}
    for angle, mult in eigenvalues:
        nxt = {c: dict(d) for c, d in dp.items()}
        for take in range(1, mult + 1):
            for c, d in dp.items():
                if c + take > v:
                    continue
                tgt = nxt.setdefault(c + take, {})
                for s, choice in d.items():
                    key = s + take * angle
                    if key not in tgt:
                        tgt[key] = choice + ((angle, take),)
        dp = nxt
    return dp.get(v, {})


def is_generic(orbits):
    """Genericity of a tuple of orbits; returns (bool, witness or None).

    Generic iff the angles of all eigenvalues sum to an integer (the
    determinants multiply to 1; otherwise the variety is empty), and for
    no 1 <= v < n are there sub-multisets of size v of each orbit's
    eigenvalue multiset whose combined angle sum is an integer (i.e. the
    product of the restricted determinants is 1).  The witness names the
    failing v, the chosen eigenvalues per orbit and their angle sum.
    """
    if not orbits:
        raise ValueError("at least one orbit required")
    n = orbits[0].n
    if any(o.n != n for o in orbits):
        raise ValueError("orbits must share the same n")
    for v in range(1, n):
        per_orbit = [_submultiset_sums_exact(o.eigenvalues, v) for o in orbits]
        # combine achievable sums across orbits
        combined = {Fraction(0): ()}
        for d in per_orbit:
            combined = {s + s2: ch + (ch2,)
                        for s, ch in combined.items()
                        for s2, ch2 in d.items()}
        for s, choice in combined.items():
            if s.denominator == 1:
                return False, {"v": v, "choices": choice, "sum": s}
    total = sum(a * m for o in orbits for a, m in o.eigenvalues)
    if total.denominator != 1:
        return False, {"v": n, "choices": tuple(o.eigenvalues for o in orbits),
                       "sum": total}
    return True, None


# -- the series formulas ---------------------------------------------------------

@dataclass
class SeriesReport:
    """Result record for one formula evaluation (pure function of inputs)."""
    formula: str
    surface: SurfaceSpec
    mu: tuple
    generic: bool
    value: RatFunc
    polynomial_in_q_t: bool
    half_integer_powers: bool
    d_mu: int
    log: list = field(default_factory=list)

    def as_dict(self):
        return {
            "formula": self.formula,
            "surface": self.surface.as_dict(),
            "mu": [list(m) for m in self.mu],
            "generic": self.generic,
            "value": self.value.text(),
            "polynomial_in_q_t": self.polynomial_in_q_t,
            "checks": {
                "half_integer_powers": self.half_integer_powers,
                "d_mu": self.d_mu,
            },
            "log": self.log,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def to_latex(self):
        return _latex(self.value)


def _latex(f):
    def poly(p):
        from .exactalg import VARS
        if p.is_zero():
            return "0"
        parts = []
        for e in sorted(p.terms):
            c = p.terms[e]
            body = "".join(
                f"{VARS[i]}^{{{x}}}" if x != 1 else VARS[i]
                for i, x in enumerate(e) if x)
            if c.denominator == 1:
                coef = str(c.numerator)
            else:
                coef = f"\\frac{{{c.numerator}}}{{{c.denominator}}}"
            if body and coef == "1":
                coef = ""
            elif body and coef == "-1":
                coef = "-"
            parts.append(coef + body if body else coef)
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    f = f.simplified()
    if f.den.is_one():
        return poly(f.num)
    return f"\\frac{{{poly(f.num)}}}{{{poly(f.den)}}}"


def d_mu(surface, mus):
    """d_mu = n^2 (m - 2 + k) + 2 - sum of squared parts, with m = r or 2g."""
    mus = pt.check_multipartition(mus)
    if len(mus) != surface.k:
        raise ValueError("k mismatch between surface and multipartition")
    n = sum(mus[0])
    return n * n * (surface.m - 2 + surface.k) + 2 - sum(
        p * p for mu in mus for p in mu)


def _series(kind, surface, mus, orbits, x, w):
    """The report for x^d/(x^2-1) * HH_{mu,m}(x, w), rewritten in q."""
    mus = pt.check_multipartition(mus)
    d = d_mu(surface, mus)
    HH = hlv_HH(mus, surface.m)
    val = (x**d / (x * x - ONE)) * HH.substitute({"z": x, "w": w})
    qval, even = u_to_q(val)
    return SeriesReport(
        formula=f"{kind}-{surface.kind}",
        surface=surface,
        mu=mus,
        generic=None if orbits is None else is_generic(orbits)[0],
        value=qval,
        polynomial_in_q_t=even and qval.simplified().den.is_monomial(),
        half_integer_powers=not even,
        d_mu=d,
        log=[f"HH_mu_m = {HH.text()}"],
    )


def eseries(surface, mus, orbits=None):
    """E-series: q^(d/2)/(q-1) * HH_{mu,m}(sqrt q, 1/sqrt q), via u = sqrt q."""
    return _series("eseries", surface, mus, orbits, U, ONE / U)


def mixed_series(surface, mus, orbits=None):
    """Conjectural mixed series:
    (qt^2)^(d/2)/(qt^2-1) * HH_{mu,m}(t sqrt q, -1/sqrt q), via (qt^2)^(1/2) = t u."""
    return _series("mixed", surface, mus, orbits, T * U, -(ONE / U))


# -- the counterexample -------------------------------------------------------

@dataclass
class CounterexampleReport:
    n: int
    d: int
    mixed: SeriesReport
    eseries: SeriesReport
    matches_carlsson: bool
    differs_from_gerbe_series: bool
    espec_matches: bool
    generic: bool

    @property
    def confirmed(self):
        return (self.matches_carlsson and self.differs_from_gerbe_series
                and self.espec_matches)

    def as_dict(self):
        return {
            "n": self.n,
            "d": self.d,
            "generic": self.generic,
            "mixed_series": self.mixed.value.text(),
            "eseries": self.eseries.value.text(),
            "checks": {
                "matches_carlsson_value": self.matches_carlsson,
                "differs_from_gerbe_series": self.differs_from_gerbe_series,
                "t_minus_one_matches_eseries": self.espec_matches,
            },
            "confirmed": self.confirmed,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def counterexample_report(n, d):
    """The r=2, k=1 counterexample for the central orbit at angle d/(2n).

    Checks that the conjectural mixed series equals (qt^2+t)^2/(qt^2-1)
    (the Carlsson value), differs from the true mixed Poincare series
    qt^2 + t of the mu_2-gerbe over C*, and specializes at t = -1 to the
    E-series q - 1.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if d % 2 != 0:
        raise ValueError("d must be even")
    import math
    # coprimality of n with d/2 is exactly what makes the orbit generic
    if math.gcd(n, d // 2) != 1:
        raise ValueError("n and d/2 must be coprime (orbit would not be generic)")
    surface = nonorientable(r=2, k=1)
    mus = ((n,),)
    orbit = OrbitSpec.central(Fraction(d, 2 * n), n)
    generic, _ = is_generic([orbit])
    mix = mixed_series(surface, mus, orbits=[orbit])
    ese = eseries(surface, mus, orbits=[orbit])
    gerbe = Q * T * T + T
    carlsson = gerbe * gerbe / (Q * T * T - ONE)
    matches = mix.value == carlsson
    differs = not (mix.value == gerbe)
    espec = mix.value.substitute({"t": RatFunc(-1)}) == ese.value
    return CounterexampleReport(
        n=n, d=d, mixed=mix, eseries=ese,
        matches_carlsson=matches,
        differs_from_gerbe_series=differs,
        espec_matches=espec,
        generic=generic,
    )
