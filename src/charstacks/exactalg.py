"""Exact rational functions over Q: quotients of Laurent polynomials over Z.

Everything downstream computes with values in the fraction field of the
Laurent polynomial ring Z[z^+-1, w^+-1, q^+-1, t^+-1, u^+-1], which is
Q(z, w, q, t, u).  The variable set is fixed and ordered; u plays the role
of sqrt(q), so q = u**2 wherever both occur and no fractional exponents
are ever needed.

Rational functions are stored as num/den pairs of Laurent polynomials
over Z.  Equality is decided by cross-multiplication; stored forms are
NOT canonical.  Every sum is returned in lowest terms, since unreduced
sums swell multiplicatively.  A reduced value has one stored form, by one
rule: num and den share no factor, their contents included, and den has
min exponents 0 and a positive leading coefficient in lex order on
(z, w, q, t, u).  So a den c*x^e leaves x^e in num and keeps c, and the
order of a sum's terms does not change its stored form.  A RatFunc marks
itself `stored` when it is known to be in that form: a value with den 1,
a lone scalar n/d, and every value that `simplified()` or a sum returns.
Products, quotients, negations and substitutions are not marked, and are
reduced only where a caller asks or where they are summed.

`RatFunc.sum` adds any number of terms by one rule.  It groups the
nonzero addends by denominator in one pass.  A lone addend is reduced by
`simplified()`, which keeps a marked one as it is, at no gcd; a larger
group has its numerators added in one pass over their terms and is
reduced once, by a full gcd, or by none over 1.  It then adds the reduced
values left to right by Henrici's rule (Knuth, TAOCP vol. 2, section
4.5.1, after Henrici 1956), in `_add_lowest`: since both addends are
reduced, the new numerator is reduced against the gcd of the two
denominators only, and that gcd is skipped when the denominators are
coprime.  `a + b` is the sum of two terms, and a caller that accumulates
many terms per coefficient collects them and sums them once.
`_mul_lowest` multiplies a marked value by a polynomial at the cost of
one gcd of that polynomial against the denominator; the kernel series
Omega builds its terms with it.

Every reduction and sum takes its gcd from one routine, `_heugcd`, the
heuristic gcd of Char, Geddes & Gonnet (1989; Geddes, Czapor & Labahn
1992, section 7.7) on integer term dicts.  It divides out the content,
and if an operand is then a constant, the gcd is that content; this
holds at every level of its recursion.  Otherwise it evaluates at powers
of two and reads the gcd and both cofactors from their images.  By the
theorem the candidate is the gcd once the gcd times each cofactor gives
back the input; a bound on their coefficients proves that without
forming the products, which are formed only where the bound fails, and a
constant candidate needs no proof.  There is no polynomial long
division: a quotient is read from the reduced fraction.

A product by a single term c*x^e, the most common kind, adds e to each
exponent of the other factor and multiplies each coefficient by c; by the
int 1 it is a copy.  Large products run on Kronecker substitution
(Kronecker 1882; Fateman, "Can you save time in multiplying polynomials
by encoding them as integers?", 2004/2010): a polynomial is shifted to
its exponent box, laid out in mixed radix, and packed into one int with a
balanced digit of 8k bits per position.  A product is one int product,
with k from the exact bound 2*|f|*|g|*min(#f, #g) < 2**(8k).  Small or
sparse products keep the schoolbook loop, by a size rule on term counts
and box size.  All three give the same term dicts.

Every coefficient is a Python int.  The series computed here have integer
coefficients, and `symfunc` stores the basis p_lam / z_lam, in which H~_mu
and Omega have them too.  The MPoly entry points (`MPoly()`, `const`,
`monomial`, `parse` and the operators) read a coefficient through
`_coeff`, which takes an int, a bool or an integral Fraction and raises
TypeError naming anything else, so no MPoly holds a Fraction or a float.
A rational scalar enters only a RatFunc, through its constructor, an
operator or a binding of `substitute`, and becomes an int numerator over
a positive int denominator: so do the 1/j and mu(r)/r weights of the
plethystic Log and the rows of the basis views.  `substitute` raises a
rational binding to its powers in `Fraction` and clears the images of num
and den by `_integral`; `eval` divides in `Fraction`.  So no int is
divided by `/`, which would give a float.

The entry points dispatch on exact types.  `RatFunc()` takes an operand
as an MPoly when its type is MPoly and reads anything else through
`_ratio`, which accepts ints, bools and Fractions and raises TypeError on
the rest.  The MPoly and RatFunc operators take only those and MPolys,
and return NotImplemented on anything else, so a RatFunc on the right of
an MPoly gets its reflected operator and a float operand raises
TypeError.  `Fraction` is an abstract base class, so `isinstance` on it
is slow, and `_coeff` and `_ratio` test the exact type int first.  No
term dict is changed once an MPoly holds it: every operation builds a new
dict, or shares one it was given.  So every RatFunc built without a
denominator shares one constant polynomial 1, and a product by a scalar
scales the coefficients with no constant polynomial built.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import reduce
from itertools import compress, product, repeat
from math import gcd, lcm, prod
from operator import add, index, mul, sub

VARS = ("z", "w", "q", "t", "u")
NVARS = len(VARS)
VAR_INDEX = {v: i for i, v in enumerate(VARS)}
ZERO_EXP = (0,) * NVARS


def _ratio(c):
    """An exact scalar (an int, a bool or a Fraction) as ints (n, d) in
    lowest terms with d > 0; TypeError naming anything else.  The exact
    type int is tested first: Fraction is an abstract base class, so
    isinstance on it is slow."""
    if type(c) is int:
        return c, 1
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"not an exact scalar: {c!r}")
    return c.numerator, c.denominator


def _coeff(c):
    """A coefficient as an int: an int, a bool or an integral Fraction;
    TypeError naming anything else."""
    if type(c) is int:
        return c
    n, d = _ratio(c)
    if d != 1:
        raise TypeError(f"not an integer coefficient: {c!r}")
    return n


def _exponent(k):
    """An exponent as an int, read through `operator.index`, so a float or
    a Fraction raises TypeError naming it."""
    try:
        return index(k)
    except TypeError:
        raise TypeError(f"not an integer exponent: {k!r}") from None


# -- polynomials as term dicts: products and the gcd ---------------------------
#
# A term dict maps exponent vectors to nonzero coefficients.


def _school_mul(f, g):
    """The product f*g of two term dicts, pair by pair."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _bounds(p):
    """The least and greatest exponent of each variable in p."""
    cols = list(zip(*p))
    return tuple(map(min, cols)), tuple(map(max, cols))


def _layout(spans):
    """Strides of the mixed-radix layout of a box with these spans (the
    last variable varies fastest), and the number of positions."""
    strides = []
    size = 1
    for s in reversed(spans):
        strides.append(size)
        size *= s
    return tuple(reversed(strides)), size


# Digits of these widths convert in one `struct` call, not one `int` call
# per digit; rounding k up to one of them costs less than the per-digit
# calls save (measured end to end in CHANGES.md).
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _width(bound):
    """Digit width in bytes, k, with bound < 2**(8k - 1); a width that
    struct can read is preferred up to 8 bytes."""
    k = (bound.bit_length() + 8) // 8
    return next((w for w in _STRUCT_CODES if w >= k), k)


def _from_digits(digits, k):
    """The int whose base-2**(8k) digits, least significant first, are
    `digits` (each in [0, 2**(8k)))."""
    if k in _STRUCT_CODES:
        data = struct.pack(f"<{len(digits)}{_STRUCT_CODES[k]}", *digits)
    else:
        data = b"".join(d.to_bytes(k, "little") for d in digits)
    return int.from_bytes(data, "little")


def _to_digits(n, size, k):
    """The `size` base-2**(8k) digits of the int n; OverflowError unless
    0 <= n < 2**(8k * size)."""
    data = n.to_bytes(size * k, "little")
    if k in _STRUCT_CODES:
        return struct.unpack(f"<{size}{_STRUCT_CODES[k]}", data)
    return [int.from_bytes(data[i:i + k], "little")
            for i in range(0, size * k, k)]


def _offset(size, k):
    """The int with all `size` digits of width k equal to 2**(8k - 1);
    adding it turns balanced digits into nonnegative ones."""
    return int.from_bytes((1 << 8 * k - 1).to_bytes(k, "little") * size,
                          "little")


def _pack(p, lo, hi, strides, k):
    """Kronecker substitution: the sum of c * 2**(8k * pos) over the terms
    c*x^e of the integer term dict p, with lo <= e <= hi, where pos is the
    position of e - lo in the layout.  Every |c| must be below
    2**(8k - 1)."""
    half = 1 << 8 * k - 1
    size = sum(map(mul, map(sub, hi, lo), strides)) + 1
    pos = repeat(-sum(map(mul, lo, strides)), len(p))
    for col, s in zip(zip(*p), strides):
        pos = map(add, pos, map(mul, col, repeat(s)))
    at = dict(zip(pos, map(add, p.values(), repeat(half))))
    digits = list(map(at.get, range(size), repeat(half)))
    return _from_digits(digits, k) - _offset(size, k)


def _unpack(n, lo, spans, size, k):
    """The term dict whose packing into the box at lo with these spans is
    n, read in balanced digits from its first `size` positions;
    OverflowError if n has digits past them."""
    half = 1 << 8 * k - 1
    digits = _to_digits(n + _offset(size, k), size, k)
    used = list(map(half.__ne__, digits))
    exps = product(*map(range, lo, map(add, lo, spans)))
    return dict(zip(compress(exps, used),
                    map(sub, compress(digits, used), repeat(half))))


def _kron_mul(f, g, bf, bg):
    """f*g by Kronecker substitution, for term dicts with exponent bounds
    bf and bg: both operands are packed into one int, with room in each
    digit for every coefficient of the product, and the ints are
    multiplied."""
    (lf, hf), (lg, hg) = bf, bg
    lo = tuple(map(add, lf, lg))
    spans = tuple(map(lambda a, b, c: a + b - c + 1, hf, hg, lo))
    strides, size = _layout(spans)
    k = _width(max(map(abs, f.values())) * max(map(abs, g.values()))
               * min(len(f), len(g)))
    return _unpack(_pack(f, lf, hf, strides, k) * _pack(g, lg, hg, strides, k),
                   lo, spans, size, k)


# When packing pays: below this size, or in a box much larger than the
# terms that fill it, packing and unpacking cost more than the loops save.
MUL_MIN_PAIRS = 128


def _mul(f, g):
    """The product f*g of two term dicts."""
    if len(f) == 1:
        f, g = g, f
    if len(g) == 1:
        # a single term c0*x^e0: add e0 to each exponent, scale by c0
        ((e0, c0),) = g.items()
        if e0 != ZERO_EXP:
            return {tuple(map(add, e, e0)): c * c0 for e, c in f.items()}
        if c0 == 1:
            return dict(f)
        return {e: c * c0 for e, c in f.items()}
    pairs = len(f) * len(g)
    if pairs >= MUL_MIN_PAIRS:
        (lf, hf), (lg, hg) = bf, bg = _bounds(f), _bounds(g)
        size = prod(map(lambda a, b, c, d: a + b - c - d + 1, hf, hg, lf, lg))
        if size <= 4 * pairs + 64:
            return _kron_mul(f, g, bf, bg)
    return _school_mul(f, g)


def _evaluate(p, i, b):
    """p with variable i set to 2**b."""
    out = {}
    for e, c in p.items():
        key = e[:i] + (0,) + e[i + 1:]
        out[key] = out.get(key, 0) + (c << b * e[i])
    return out


def _interpolate(h, i, b):
    """Read the balanced base-2**b digits of each coefficient of h as the
    coefficients of successive powers of variable i."""
    mask, half, x = (1 << b) - 1, 1 << b - 1, 1 << b
    out = {}
    for e, c in h.items():
        j = 0
        while c:
            d = c & mask
            if d > half:
                d -= x
            if d:
                out[e[:i] + (j,) + e[i + 1:]] = d
            c = (c - d) >> b
            j += 1
    return out


def _heugcd(f, g):
    """(h, f/h, g/h) for nonzero integer term dicts f and g with
    nonnegative exponents, with h their gcd over Z up to sign.

    The heuristic gcd (Char, Geddes & Gonnet 1989; Geddes, Czapor &
    Labahn 1992, section 7.7): the content c is divided out, and if f or
    g is then a constant, the gcd is c and the cofactors are f/c and g/c,
    since a constant's gcd with a polynomial is its gcd with the content.
    That rule holds at every level, so an image that is a constant is not
    evaluated again.  Otherwise the first variable in use is set to
    xi = 2**b, the gcd of the images and their cofactors are taken
    recursively, and h and the cofactors are read from balanced base-xi
    digits, h with its content divided out.  By the theorem, a primitive
    h so read is the gcd once it divides f and g and
    xi >= 2 * min(|f|, |g|) + 2, where |p| is the largest absolute value
    of a coefficient of p and |p|_1 the sum of them.  The first b makes
    xi > 64 * max(|f|, |g|): four bits past the 4 * max that meets the
    theorem, so that the bound below holds at the first width on nearly
    every level.

    The checks, in order:
    - an h that is a constant has primitive part 1, which divides f and
      g, so the gcd is c and the cofactors are f/c and g/c;
    - the bound |h|_1 * max(|f/h|, |g/h|) < xi/2 proves h * (f/h) = f
      and h * (g/h) = g with no product: the level below certified the
      images, so (h * (f/h))(xi) = f(xi) exactly; every coefficient in
      the variable set to xi, of h * (f/h) by the bound and of f since
      |f| < xi/4, lies strictly inside (-xi/2, xi/2); and balanced
      base-xi digits are unique.  The same holds for g;
    - otherwise the two products are formed and compared;
    - if they differ too, b doubles, for at most six tries.
    """
    c = gcd(*f.values(), *g.values())
    if c != 1:
        f = {e: v // c for e, v in f.items()}
        g = {e: v // c for e, v in g.items()}
    if ZERO_EXP in f and len(f) == 1 or ZERO_EXP in g and len(g) == 1:
        return {ZERO_EXP: c}, f, g
    i = next(i for i, col in enumerate(zip(*f, *g)) if any(col))
    b = max(*map(abs, f.values()), *map(abs, g.values())).bit_length() + 6
    for _ in range(6):
        # xi > 2 * |f|, so no image vanishes
        h, cf, cg = _heugcd(_evaluate(f, i, b), _evaluate(g, i, b))
        h = _interpolate(h, i, b)
        if ZERO_EXP in h and len(h) == 1:
            return {ZERO_EXP: c}, f, g
        hc = gcd(*h.values())
        h = {e: v // hc for e, v in h.items()}
        cf = _interpolate({e: v * hc for e, v in cf.items()}, i, b)
        cg = _interpolate({e: v * hc for e, v in cg.items()}, i, b)
        if (sum(map(abs, h.values()))
                * max(*map(abs, cf.values()), *map(abs, cg.values()))
                < 1 << b - 1
                or _mul(h, cf) == f and _mul(h, cg) == g):
            return {e: v * c for e, v in h.items()}, cf, cg
        b *= 2
    raise ArithmeticError("heuristic gcd failed")


def _integral(p):
    """(m, m * p) for a term dict p with Fraction or int coefficients, m
    the least common denominator of the coefficients; m * p has ints."""
    if all(type(c) is int for c in p.values()):
        return 1, p
    m = lcm(*(c.denominator for c in p.values()))
    return m, {e: c.numerator * (m // c.denominator) for e, c in p.items()}


def _as_poly(terms):
    """An MPoly on the term dict `terms`, taken as it is."""
    p = MPoly.__new__(MPoly)
    p.terms = terms
    return p


class MPoly:
    """Sparse Laurent polynomial over Z: map exponent vector -> nonzero int
    coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {e: _coeff(c) for e, c in terms.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c):
        c = _coeff(c)
        return _as_poly({ZERO_EXP: c} if c else {})

    @staticmethod
    def var(name, exp=1):
        e = [0] * NVARS
        e[VAR_INDEX[name]] = _exponent(exp)
        return MPoly({tuple(e): 1})

    @staticmethod
    def monomial(exps, coeff=1):
        return MPoly({tuple(map(_exponent, exps)): coeff})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return len(self.terms) == 1 and self.terms.get(ZERO_EXP) == 1

    def is_monomial(self):
        return len(self.terms) == 1

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if type(other) is not MPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MPoly.const(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _as_poly(out)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if type(other) is MPoly:
            return _as_poly(_mul(self.terms, other.terms))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = _coeff(other)
        return _as_poly({e: v * c for e, v in self.terms.items()} if c else {})

    __rmul__ = __mul__

    def __pow__(self, n):
        n = _exponent(n)
        if n < 0:
            # only the units +-x^e of the ring have an inverse in it
            if not (self.is_monomial() and abs(*self.terms.values()) == 1):
                raise ValueError("negative power of a non-unit")
            ((e, c),) = self.terms.items()
            return _as_poly({tuple(x * n for x in e): c ** -n})
        out = _ONE_POLY
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
        terms = {}
        for chunk in s.split(" + "):
            factors = chunk.strip().split("*")
            c = Fraction(factors[0])
            e = [0] * NVARS
            for fac in factors[1:]:
                name, _, exp = fac.partition("^")
                e[VAR_INDEX[name]] = int(exp)
            key = tuple(e)
            terms[key] = terms.get(key, 0) + c
        return MPoly(terms)

    def __repr__(self):
        return f"MPoly({self.text()})"


# the denominator of every RatFunc built without one; shared, since no term
# dict is changed once it is built
_ONE_POLY = _as_poly({ZERO_EXP: 1})


class RatFunc:
    """Rational function num/den; equality by cross-multiplication.

    `stored` is True only on a value known to be in the stored form that
    `simplified()` gives: one with den 1, or one built by `_lowest`, as
    every result of `simplified()`, `_add_lowest` and `_mul_lowest` is.
    Other values may be in that form without the mark.
    """

    __slots__ = ("num", "den", "stored")

    def __init__(self, num, den=None):
        stored = den is None  # a lone scalar n/d is in lowest terms, d > 0
        if type(num) is not MPoly:
            n, d = _ratio(num)
            num = MPoly.const(n)
            if d != 1:
                den = d if den is None else den * d
        if den is None:
            den = _ONE_POLY
        elif type(den) is not MPoly:
            n, d = _ratio(den)
            num, den = num * d, MPoly.const(n)
        if not den.terms:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = num, den
        self.stored = stored or den.is_one()

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RatFunc is not hashable (equality is semantic)")

    # -- field operations ------------------------------------------------------

    @staticmethod
    def _coerce(x):
        """x as a RatFunc if it is one, an MPoly or an exact scalar; None
        otherwise, so that an operator returns NotImplemented."""
        if type(x) is RatFunc:
            return x
        if type(x) is MPoly or isinstance(x, (int, Fraction)):
            return RatFunc(x)
        return None

    @staticmethod
    def sum(terms):
        """The sum of the RatFuncs `terms`, in stored form.

        Zero addends are dropped and the rest grouped by denominator.  A
        group of one is taken as `simplified()` returns it: a marked
        addend as it is, with no call.  A larger group has its numerators
        added in one pass over their terms and is reduced once, with no
        gcd over 1.  The reduced values are then added left to right by
        `_add_lowest`, whose gcd is against the gcd of two denominators
        only.
        """
        groups = {}
        for t in terms:
            if t.num.terms:
                groups.setdefault(t.den, []).append(t)
        reduced = []
        for den, (t, *rest) in groups.items():
            if rest:
                num = dict(t.num.terms)
                for r in rest:
                    for e, c in r.num.terms.items():
                        num[e] = num.get(e, 0) + c
                t = RatFunc(_as_poly({e: c for e, c in num.items() if c}), den)
            if t.num.terms:
                reduced.append(t if t.stored else t.simplified())
        return reduce(_add_lowest, reduced) if reduced else RatFunc(0)

    def __add__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self.__add__(-other)

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
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            if self.num.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    # -- specialization ----------------------------------------------------------

    def substitute(self, bindings):
        """Simultaneous substitution var -> nonzero monomial c * x^e.

        A binding is an int, a Fraction, or a RatFunc whose num and den are
        single terms; any other binding raises TypeError.  Each term of num
        and den is mapped to one term, so no sum is re-expanded; c goes
        through Fraction, so a negative power of it is never a float.  The
        images of num and den are cleared of their denominators by
        `_integral`, and each one's lcm multiplies the other.  Variables
        absent from `bindings` are left unchanged.  Raises
        ZeroDivisionError if the denominator vanishes after substitution.
        """
        bound = []
        for v, val in bindings.items():
            val = RatFunc._coerce(val)
            if val is None or not (val.num.is_monomial()
                                   and val.den.is_monomial()):
                raise TypeError(f"binding for {v} is not a monomial")
            ((en, cn),) = val.num.terms.items()
            ((ed, cd),) = val.den.terms.items()
            bound.append((VAR_INDEX[v], tuple(map(sub, en, ed)),
                          Fraction(cn, cd)))

        def image(p):
            out = {}
            for e, c in p.terms.items():
                img = list(e)
                for i, _, _ in bound:
                    img[i] = 0
                for i, be, bc in bound:
                    x = e[i]
                    if x:
                        img = [a + x * b for a, b in zip(img, be)]
                        if bc != 1:
                            c = c * bc ** x
                key = tuple(img)
                out[key] = out.get(key, 0) + c
            m, out = _integral({e: c for e, c in out.items() if c})
            return m, _as_poly(out)

        (mn, num), (md, den) = image(self.num), image(self.den)
        if den.is_zero():
            raise ZeroDivisionError("denominator vanishes under substitution")
        return RatFunc(num * md, den * mn)

    def eval(self, point):
        """The value as a Fraction: `substitute` with constant bindings.

        Raises ValueError naming the first variable still present, and
        whatever `substitute` raises (a pole, a zero binding, an unknown
        variable).
        """
        f = self.substitute(point)
        for i, v in enumerate(VARS):
            if any(e[i] for p in (f.num, f.den) for e in p.terms):
                raise ValueError(f"no value supplied for variable {v}")
        return Fraction(f.num.terms.get(ZERO_EXP, 0)) / f.den.terms[ZERO_EXP]

    def scale_exponents(self, r):
        return RatFunc(self.num.scale_exponents(r), self.den.scale_exponents(r))

    # -- cleanup and normal forms ---------------------------------------------

    def simplified(self):
        """num/den in stored form; semantics unchanged.

        A stored value is returned as it is; any other is reduced by one
        gcd and put in stored form by `_lowest`: num and den share no
        factor, contents included, den has min exponents 0, and its
        leading coefficient in lex order is positive.
        """
        if self.stored:
            return self
        if self.num.is_zero():
            return RatFunc(0)
        # monomials are units: shift to honest polynomials first
        (sn, f), (sd, g) = _shifted(self.num.terms), _shifted(self.den.terms)
        _, f, g = _heugcd(f, g)
        return _lowest(_unshifted(tuple(map(sub, sn, sd)), f), g)

    def as_mpoly(self):
        """The underlying Laurent polynomial, or None if genuinely rational."""
        red = self.simplified()
        return red.num if red.den.is_one() else None

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


# -- sums and products of values already in lowest terms -----------------------
#
# A value in lowest terms (the stored form `simplified()` gives) lets a sum
# or a product skip most of its final gcd.  Both primitives return the
# stored form `simplified()` would give, marked, and neither checks its
# operands: `RatFunc.sum` sends `_add_lowest` only the reduced values of
# its groups.


def _shifted(p):
    """(s, p / x^s) for a nonzero term dict p, with s the least exponents,
    so that p / x^s has min exponents 0."""
    s = _bounds(p)[0]
    if s == ZERO_EXP:
        return s, p
    return s, {tuple(map(sub, e, s)): c for e, c in p.items()}


def _unshifted(s, p):
    return p if s == ZERO_EXP else {tuple(map(add, e, s)): c
                                    for e, c in p.items()}


def _lowest(num, den):
    """The stored form of num/den, marked stored, for term dicts num and
    den that share no factor, contents included, with den of min
    exponents 0: the one rule left is the sign of den's leading term."""
    if den[max(den)] < 0:
        num = {e: -c for e, c in num.items()}
        den = {e: -c for e, c in den.items()}
    out = RatFunc(_as_poly(num), _as_poly(den))
    out.stored = True
    return out



def _mul_lowest(x, p):
    """x * p in stored form, for x in stored form and p an MPoly.  With
    x = n/d, n shares no factor with d, so the only factor of n*p and d to
    cancel is gcd(p, d): one gcd of p against d, not of n*p against d.
    Where p or d is a constant, d = 1 included, that gcd is an integer
    gcd, by the constant rule of `_heugcd`."""
    if x.num.is_zero() or p.is_zero():
        return RatFunc(0)
    s, p = _shifted(p.terms)
    _, p, den = _heugcd(p, x.den.terms)
    return _lowest(_unshifted(s, _mul(x.num.terms, p)), den)


def _add_lowest(x, y):
    """x + y in stored form, for x and y in stored form (`RatFunc.sum`
    adds every reduced value by this rule).

    With g = gcd(d_x, d_y), d_x = g a and d_y = g b, the sum is
    t / (g a b) with t = n_x b + n_y a.  A prime dividing t and a divides
    n_x b, which it cannot (n_x is prime to d_x, a to b), and likewise
    for b; by Gauss's lemma the same holds for the integer primes of the
    contents.  So t shares with g a b only factors of g, and t is reduced
    against g alone, by an integer gcd when g is a constant, 1 included
    (the constant rule of `_heugcd`).  Equal denominators give g = d_x
    and a = b = 1 with no gcd: `RatFunc.sum` adds addends that share one
    as a group, so only a running sum meets one here.
    """
    dx, dy = x.den.terms, y.den.terms
    one = _ONE_POLY.terms
    g, a, b = (dx, one, one) if dx == dy else _heugcd(dx, dy)
    t = _as_poly(_mul(x.num.terms, b)) + _as_poly(_mul(y.num.terms, a))
    if t.is_zero():
        return RatFunc(0)
    s, t = _shifted(t.terms)
    h, t, g = _heugcd(t, g)
    den = _mul(dx, b) if h == one else _mul(_mul(g, a), b)
    return _lowest(_unshifted(s, t), den)


def u_to_q(f):
    """Rewrite a rational function of u (even overall) as one of q.

    Returns (RatFunc in q, True) on success.  If f is not even in u the
    original value is returned with flag False (a genuine sqrt(q)
    presentation; never silently rounded).
    """
    f = f.simplified()
    iu = VAR_INDEX["u"]
    # in lowest terms den has a u^0 term, so den(-u) = den: f is even in u
    # iff every u-exponent of num and den is even
    if any(e[iu] % 2 for p in (f.num, f.den) for e in p.terms):
        return f, False

    def rewrite(p):
        iq = VAR_INDEX["q"]
        out = {}
        for e, c in p.terms.items():
            e2 = list(e)
            e2[iq] += e2[iu] // 2
            e2[iu] = 0
            out[tuple(e2)] = out.get(tuple(e2), 0) + c
        return MPoly(out)

    return RatFunc(rewrite(f.num), rewrite(f.den)).simplified(), True


# convenient generators
Z = RatFunc(MPoly.var("z"))
W = RatFunc(MPoly.var("w"))
Q = RatFunc(MPoly.var("q"))
T = RatFunc(MPoly.var("t"))
U = RatFunc(MPoly.var("u"))
ONE = RatFunc(1)
ZERO = RatFunc(0)
