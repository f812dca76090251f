"""Orbit/surface data, genericity, and the cohomology-series formulas.

Four series are computed from HH_{mu,m}(z,w):

  * nonorientable E-series:  q^(d/2)/(q-1)      * HH_{mu,r} (sqrt q, 1/sqrt q)
  * orientable E-series:     q^(d/2)/(q-1)      * HH_{mu,2g}(sqrt q, 1/sqrt q)
  * nonorientable mixed:     (qt^2)^(d/2)/(qt^2-1) * HH_{mu,r} (t sqrt q, -1/sqrt q)
  * orientable mixed:        same with m = 2g

sqrt(q) is realized as the variable u (positive branch; q = u**2) and
(qt^2)^(1/2) as t*u.  When d_mu is odd the q-presentation genuinely
involves sqrt(q); the report records that instead of rounding.

The formulas are only claimed for generic orbit tuples: a report given
orbits, and the counterexample, refuse a non-generic tuple with one
message that names is_generic's witness.  The CLI's `count` gets its
refusal and its formula from one eseries call on its own orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import index

from .exactalg import RatFunc, ONE, Q, T, U, u_to_q
from . import partitions as pt
from .hlvkernel import hlv_HH


# -- orbit and surface data ---------------------------------------------------

def _angle(a):
    """a mod 1, for a an int or a Fraction; TypeError otherwise."""
    if not isinstance(a, (int, Fraction)):
        raise TypeError(f"an angle is an int or a Fraction: {a!r}")
    return Fraction(a) % 1


@dataclass(frozen=True)
class OrbitSpec:
    """Semisimple orbit: eigenvalues e^(2*pi*i*angle) with multiplicities."""
    eigenvalues: tuple  # of (Fraction angle in [0,1), int multiplicity >= 1)

    @staticmethod
    def make(pairs):
        """An angle is an int or a Fraction, never a float: a float would
        enter as its binary value, a different orbit from the one meant."""
        eig = tuple((_angle(a), index(m)) for a, m in pairs)
        if any(m < 1 for _, m in eig):
            raise ValueError("multiplicities must be >= 1")
        if len({a for a, _ in eig}) != len(eig):
            raise ValueError("angles must be distinct mod 1")
        return OrbitSpec(eig)

    @staticmethod
    def central(angle, n):
        """The central orbit {e^(2*pi*i*angle) * I_n}."""
        return OrbitSpec.make([(angle, n)])

    @property
    def n(self):
        return sum(m for _, m in self.eigenvalues)

    @property
    def type(self):
        """The multiplicities in descending order: a partition of n."""
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

def _submultiset_sums(eigenvalues, vmax):
    """Achievable angle-sums over sub-multisets of each size v <= vmax, as
    a dict v -> {sum: witness choice}, one witness per sum."""
    dp = {0: {Fraction(0): ()}}
    for angle, mult in eigenvalues:
        nxt = {c: dict(d) for c, d in dp.items()}
        for take in range(1, mult + 1):
            for c, d in dp.items():
                if c + take > vmax:
                    continue
                tgt = nxt.setdefault(c + take, {})
                for s, choice in d.items():
                    key = s + take * angle
                    if key not in tgt:
                        tgt[key] = choice + ((angle, take),)
        dp = nxt
    return dp


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
    tables = [_submultiset_sums(o.eigenvalues, n - 1) for o in orbits]
    for v in range(1, n):
        per_orbit = [dp.get(v, {}) for dp in tables]
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


def _require_generic(orbits, subject):
    """True for generic orbits; otherwise a ValueError that names
    is_generic's witness and says, with `subject`, what is refused."""
    generic, witness = is_generic(orbits)
    if not generic:
        raise ValueError(
            f"{subject} not generic (witness: v = {witness['v']}, angle sum "
            f"{witness['sum']}), so no formula is claimed")
    return True


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


def d_mu(surface, mus):
    """d_mu = n^2 (m - 2 + k) + 2 - sum of squared parts, with m = r or 2g."""
    mus = pt.check_multipartition(mus)
    if len(mus) != surface.k:
        raise ValueError("k mismatch between surface and multipartition")
    n = sum(mus[0])
    return n * n * (surface.m - 2 + surface.k) + 2 - sum(
        p * p for mu in mus for p in mu)


def _series(kind, surface, mus, HH, generic):
    """The report for x^d/(x^2-1) * HH(x, w), rewritten in q, where HH is
    HH_{mu,m}(z,w) and generic the orbits' verdict (None: no orbits)."""
    x, w = (U, ONE / U) if kind == "eseries" else (T * U, -(ONE / U))
    d = d_mu(surface, mus)
    val = (x**d / (x * x - ONE)) * HH.substitute({"z": x, "w": w})
    qval, even = u_to_q(val)
    return SeriesReport(
        formula=f"{kind}-{surface.kind}",
        surface=surface,
        mu=mus,
        generic=generic,
        value=qval,
        polynomial_in_q_t=even and qval.den.is_monomial(),
        half_integer_powers=not even,
        d_mu=d,
        log=[f"HH_mu_m = {HH.text()}"],
    )


def _report(kind, surface, mus, orbits):
    """_series on HH_{mu,m} and the orbits' verdict; a k mismatch,
    non-generic orbits and orbits whose types are not mu are refused before
    HH is computed."""
    mus = pt.check_multipartition(mus)
    d_mu(surface, mus)
    generic = None if orbits is None else _require_generic(
        orbits, "the orbits are")
    types = None if orbits is None else tuple(o.type for o in orbits)
    if types not in (None, mus):
        raise ValueError(f"the orbits have types {types}, not mu = {mus}")
    return _series(kind, surface, mus, hlv_HH(mus, surface.m), generic)


def eseries(surface, mus, orbits=None):
    """E-series: q^(d/2)/(q-1) * HH_{mu,m}(sqrt q, 1/sqrt q), via u = sqrt q."""
    return _report("eseries", surface, mus, orbits)


def mixed_series(surface, mus, orbits=None):
    """Conjectural mixed series:
    (qt^2)^(d/2)/(qt^2-1) * HH_{mu,m}(t sqrt q, -1/sqrt q), via (qt^2)^(1/2) = t u."""
    return _report("mixed", surface, mus, orbits)


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


def counterexample_report(n, d):
    """The r=2, k=1 counterexample for the central orbit at angle d/(2n).

    Checks that the conjectural mixed series equals (qt^2+t)^2/(qt^2-1)
    (the Carlsson value), differs from the true mixed Poincare series
    qt^2 + t of the mu_2-gerbe over C*, and specializes at t = -1 to the
    E-series q - 1.  Both series come from one HH_{(n),2}.

    Genericity of the orbit is the precondition: it holds exactly when d
    is even and gcd(n, d/2) = 1, and a non-generic orbit is refused with
    is_generic's witness.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    generic = _require_generic(
        [OrbitSpec.central(Fraction(d, 2 * n), n)],
        f"the central orbit of GL_{n} at angle d/(2n) = {d}/{2 * n} is")
    surface = nonorientable(r=2, k=1)
    mus = ((n,),)
    HH = hlv_HH(mus, surface.m)
    mix = _series("mixed", surface, mus, HH, generic)
    ese = _series("eseries", surface, mus, HH, generic)
    gerbe = Q * T * T + T
    carlsson = gerbe * gerbe / (Q * T * T - ONE)
    return CounterexampleReport(
        n=n, d=d, mixed=mix, eseries=ese,
        matches_carlsson=mix.value == carlsson,
        differs_from_gerbe_series=mix.value != gerbe,
        espec_matches=mix.value.substitute({"t": RatFunc(-1)}) == ese.value,
        generic=generic,
    )
