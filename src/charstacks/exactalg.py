"""Exact Laurent-polynomial and rational-function arithmetic over Q.

Everything downstream computes with values in the fraction field of the
Laurent polynomial ring Q[z^+-1, w^+-1, q^+-1, t^+-1, u^+-1].  The variable
set is fixed and ordered; u plays the role of sqrt(q), so q = u**2 wherever
both occur and no fractional exponents are ever needed.

Rational functions are stored as num/den pairs of Laurent polynomials.
Equality is decided by cross-multiplication; stored forms are NOT canonical.
`RatFunc.simplified()` is an optional cleanup (gcd cancellation via sympy)
used to keep intermediate swell under control, never for correctness.
"""

from __future__ import annotations

from fractions import Fraction

from sympy import QQ as _QQ
from sympy.polys.rings import ring as _ring

VARS = ("z", "w", "q", "t", "u")
NVARS = len(VARS)
VAR_INDEX = {v: i for i, v in enumerate(VARS)}
ZERO_EXP = (0,) * NVARS

_RING = _ring(" ".join(VARS), _QQ)[0]


class PolynomialityError(ValueError):
    """Raised when a rational function fails a polynomiality check.

    Carries a witness: the offending monomial (exponent tuple) or the
    uncancelled denominator.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not an exact scalar: {c!r}")


class MPoly:
    """Sparse Laurent polynomial: map exponent vector -> nonzero Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {e: c for e, c in terms.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c):
        c = _as_fraction(c)
        return MPoly({ZERO_EXP: c}) if c else MPoly()

    @staticmethod
    def var(name, exp=1):
        e = [0] * NVARS
        e[VAR_INDEX[name]] = exp
        return MPoly({tuple(e): Fraction(1)})

    @staticmethod
    def monomial(exps, coeff=1):
        return MPoly({tuple(exps): _as_fraction(coeff)})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {ZERO_EXP: Fraction(1)}

    def is_monomial(self):
        return len(self.terms) == 1

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and ZERO_EXP in self.terms)

    def constant_value(self):
        return self.terms.get(ZERO_EXP, Fraction(0))

    def variables_used(self):
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(VARS[i])
        return used

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = MPoly.__new__(MPoly)
        res.terms = out
        return res

    def __neg__(self):
        res = MPoly.__new__(MPoly)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = MPoly.__new__(MPoly)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            if not self.is_monomial():
                raise ValueError("negative power of a non-monomial")
            ((e, c),) = self.terms.items()
            return MPoly({tuple(x * n for x in e): c**n})
        out = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale_exponents(self, r):
        """Substitute every variable v by v**r (exponent dilation)."""
        return MPoly({tuple(x * r for x in e): c for e, c in self.terms.items()})

    # -- evaluation and division -------------------------------------------

    def evaluate(self, point):
        """Exact evaluation at a dict var -> Fraction."""
        vals = []
        for v in VARS:
            vals.append(_as_fraction(point[v]) if v in point else None)
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for i, x in enumerate(e):
                if x:
                    if vals[i] is None:
                        raise ValueError(f"no value supplied for variable {VARS[i]}")
                    term *= vals[i] ** x
            total += term
        return total

    def min_exponents(self):
        if not self.terms:
            return ZERO_EXP
        return tuple(min(e[i] for e in self.terms) for i in range(NVARS))

    def shift(self, delta):
        return MPoly({tuple(a + b for a, b in zip(e, delta)): c
                      for e, c in self.terms.items()})

    def exact_div(self, other):
        """Exact quotient self/other as a Laurent polynomial, or None.

        Long division by a single divisor in lex order; correct as an
        exactness test because any nonzero remainder would have a leading
        term divisible by the divisor's leading term.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return MPoly()
        if other.is_monomial():
            ((e2, c2),) = other.terms.items()
            inv = tuple(-x for x in e2)
            return MPoly({tuple(a + b for a, b in zip(e, inv)): c / c2
                          for e, c in self.terms.items()})
        # shift both to honest polynomials; monomials are units here
        sf, sg = self.min_exponents(), other.min_exponents()
        f = self.shift(tuple(-x for x in sf))
        g = other.shift(tuple(-x for x in sg))
        g_lead = max(g.terms)
        g_lc = g.terms[g_lead]
        quot = {}
        rem = dict(f.terms)
        while rem:
            lead = max(rem)
            if any(a < b for a, b in zip(lead, g_lead)):
                return None
            qe = tuple(a - b for a, b in zip(lead, g_lead))
            qc = rem[lead] / g_lc
            quot[qe] = quot.get(qe, Fraction(0)) + qc
            for e2, c2 in g.terms.items():
                e = tuple(a + b for a, b in zip(qe, e2))
                s = rem.get(e, Fraction(0)) - qc * c2
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
        q = MPoly(quot)
        return q.shift(tuple(a - b for a, b in zip(sf, sg)))

    # -- text form ----------------------------------------------------------

    def text(self):
        """Canonical text: monomials sorted lex by exponent vector."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            factors = [str(c)]
            for i, x in enumerate(e):
                if x:
                    factors.append(f"{VARS[i]}^{x}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    @staticmethod
    def parse(s):
        s = s.strip()
        if s == "0":
            return MPoly()
        terms = {}
        for chunk in s.split(" + "):
            factors = chunk.strip().split("*")
            c = Fraction(factors[0])
            e = [0] * NVARS
            for fac in factors[1:]:
                name, _, exp = fac.partition("^")
                e[VAR_INDEX[name]] = int(exp)
            key = tuple(e)
            terms[key] = terms.get(key, Fraction(0)) + c
        return MPoly(terms)

    def __repr__(self):
        return f"MPoly({self.text()})"

    # -- low-level poly-ring bridge (gcd cleanup only) -----------------------

    def to_ring(self):
        return _RING.from_dict(
            {e: _QQ(c.numerator, c.denominator) for e, c in self.terms.items()})

    @staticmethod
    def from_ring(elem):
        return MPoly({tuple(e): Fraction(int(c.numerator), int(c.denominator))
                      for e, c in elem.terms()})


class RatFunc:
    """Rational function num/den; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = MPoly.const(num)
        if den is None:
            den = MPoly.const(1)
        elif isinstance(den, (int, Fraction)):
            den = MPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def variables_used(self):
        return self.num.variables_used() | self.den.variables_used()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RatFunc is not hashable (equality is semantic)")

    # -- field operations ------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFunc(x)
        if isinstance(x, MPoly):
            return RatFunc(x)
        return None

    def __add__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFunc._coerce(other) / self

    def __pow__(self, n):
        if n < 0:
            if self.num.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    # -- specialization ----------------------------------------------------------

    def substitute(self, bindings):
        """Simultaneous substitution var -> RatFunc.

        Variables absent from `bindings` are left unchanged.  Raises
        ZeroDivisionError if the denominator vanishes identically after
        substitution.
        """
        bound = {}
        for v, val in bindings.items():
            val = RatFunc._coerce(val)
            if val is None:
                raise TypeError(f"binding for {v} is not a RatFunc")
            bound[VAR_INDEX[v]] = val
        num = _substitute_mpoly(self.num, bound)
        den = _substitute_mpoly(self.den, bound)
        if den.num.is_zero():
            raise ZeroDivisionError("denominator vanishes under substitution")
        return num / den

    def eval(self, point):
        """Exact evaluation at a dict var -> Fraction; raises on poles."""
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at {point}")
        return self.num.evaluate(point) / d

    def scale_exponents(self, r):
        return RatFunc(self.num.scale_exponents(r), self.den.scale_exponents(r))

    # -- cleanup and normal forms ---------------------------------------------

    def simplified(self):
        """Cancel the gcd of num and den (sympy); semantics unchanged."""
        if self.num.is_zero():
            return RatFunc(MPoly(), MPoly.const(1))
        if self.den.is_monomial():
            return RatFunc(self.num.exact_div(self.den), MPoly.const(1))
        # monomials are units: shift to honest polynomials first
        sn, sd = self.num.min_exponents(), self.den.min_exponents()
        num = self.num.shift(tuple(-x for x in sn))
        den = self.den.shift(tuple(-x for x in sd))
        n_elem, d_elem = num.to_ring().cancel(den.to_ring())
        num2 = MPoly.from_ring(n_elem)
        den2 = MPoly.from_ring(d_elem)
        # reapply the net monomial shift
        net = tuple(a - b for a, b in zip(sn, sd))
        num2 = num2.shift(net)
        if den2.is_monomial():
            return RatFunc(num2.exact_div(den2), MPoly.const(1))
        return RatFunc(num2, den2)

    def as_mpoly(self):
        """The underlying Laurent polynomial, or None if genuinely rational."""
        if self.den.is_monomial():
            return self.num.exact_div(self.den)
        q = self.num.exact_div(self.den)
        if q is not None:
            return q
        red = self.simplified()
        return red.num.exact_div(red.den)

    def text(self):
        if self.den.is_one():
            return self.num.text()
        return f"({self.num.text()}) / ({self.den.text()})"

    @staticmethod
    def parse(s):
        s = s.strip()
        if s.startswith("(") and ") / (" in s and s.endswith(")"):
            left, _, right = s.partition(") / (")
            return RatFunc(MPoly.parse(left[1:]), MPoly.parse(right[:-1]))
        return RatFunc(MPoly.parse(s))

    def __repr__(self):
        return f"RatFunc({self.text()})"


def _substitute_mpoly(p, bound):
    """Substitute bound variables (index -> RatFunc) into an MPoly."""
    # cache powers per variable
    pow_cache = {}

    def vpow(i, e):
        key = (i, e)
        if key not in pow_cache:
            pow_cache[key] = bound[i] ** e
        return pow_cache[key]

    total = RatFunc(0)
    for e, c in p.terms.items():
        term_num = MPoly.const(c)
        term = RatFunc(term_num)
        keep = [0] * NVARS
        for i, x in enumerate(e):
            if x:
                if i in bound:
                    term = term * vpow(i, x)
                else:
                    keep[i] = x
        if any(keep):
            term = term * RatFunc(MPoly.monomial(keep))
        total = total + term
    return total


def as_polynomial_in_q(f):
    """Rewrite f as an honest polynomial with u**2 -> q.

    Succeeds iff f reduces to a Laurent polynomial with no negative
    exponents whose u-exponents are all even.  Raises PolynomialityError
    with a witness otherwise.
    """
    p = f.as_mpoly()
    if p is None:
        raise PolynomialityError("genuine denominator remains",
                                 witness=f.simplified().den)
    iu, iq = VAR_INDEX["u"], VAR_INDEX["q"]
    out = {}
    for e, c in p.terms.items():
        if any(x < 0 for x in e):
            raise PolynomialityError(f"negative exponent in monomial {e}", witness=e)
        if e[iu] % 2:
            raise PolynomialityError(f"odd power of u in monomial {e}", witness=e)
        e2 = list(e)
        e2[iq] += e2[iu] // 2
        e2[iu] = 0
        key = tuple(e2)
        out[key] = out.get(key, Fraction(0)) + c
    return MPoly(out)


def u_to_q(f):
    """Rewrite a rational function of u (even overall) as one of q.

    Returns (RatFunc in q, True) on success.  If f is not even in u the
    original value is returned with flag False (a genuine sqrt(q)
    presentation; never silently rounded).
    """
    f = f.simplified()
    iu = VAR_INDEX["u"]

    def flip(p):
        return MPoly({e: (c if e[iu] % 2 == 0 else -c) for e, c in p.terms.items()})

    num = f.num * flip(f.den)
    den = f.den * flip(f.den)
    # den is even in u by construction; f is even in u iff num is too
    if any(e[iu] % 2 for e in num.terms):
        return f, False

    def rewrite(p):
        iq = VAR_INDEX["q"]
        out = {}
        for e, c in p.terms.items():
            e2 = list(e)
            e2[iq] += e2[iu] // 2
            e2[iu] = 0
            out[tuple(e2)] = out.get(tuple(e2), Fraction(0)) + c
        return MPoly(out)

    return RatFunc(rewrite(num), rewrite(den)).simplified(), True


# convenient generators
Z = RatFunc(MPoly.var("z"))
W = RatFunc(MPoly.var("w"))
Q = RatFunc(MPoly.var("q"))
T = RatFunc(MPoly.var("t"))
U = RatFunc(MPoly.var("u"))
ONE = RatFunc(1)
ZERO = RatFunc(0)
