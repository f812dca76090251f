import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from charstacks import exactalg as ea
from charstacks.exactalg import (MPoly, RatFunc, u_to_q, ONE, ZERO, Z, W, Q,
                                T, U, VARS)


def rf(s):
    return RatFunc.parse(s)


def test_difference_of_squares():
    assert (Z - W) * (Z + W) == Z * Z - W * W


def test_cancellation_equality():
    assert (Q - ONE) / (Q - ONE) == ONE


def test_common_denominator():
    qt2 = Q * T * T
    assert ONE / (qt2 - ONE) + ONE == qt2 / (qt2 - ONE)


def test_div_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        ONE / (Q - Q)
    with pytest.raises(ZeroDivisionError):
        1 / ZERO


def test_substitute_expansion():
    f = (Z - W) ** 2
    got = f.substitute({"z": T * U, "w": -(ONE / U)})
    expected = T * T * U * U + 2 * T + ONE / (U * U)
    assert got == expected


def test_substitute_q_to_u2():
    assert Q.substitute({"q": U * U}) == U * U


def test_substitute_then_scale():
    f = (Z - W).substitute({"z": U, "w": ONE / U}) * U
    assert f == U * U - ONE
    for x in (2, 3, 5):
        assert f.eval({"u": Fraction(x)}) == Fraction(x * x - 1)


def test_eval():
    assert (Q - ONE).eval({"q": 3}) == 2
    assert (Q * T * T + T).eval({"q": 3, "t": -1}) == 2
    assert (ONE / (U * U)).eval({"u": 2}) == Fraction(1, 4)


def test_eval_pole_reported():
    with pytest.raises(ZeroDivisionError):
        (ONE / (Q - ONE)).eval({"q": 1})


def test_eval_is_substitute_to_constants():
    f = (Q * T + ONE) / (Q - ONE)
    assert f.eval({"q": 3, "t": 2}) == Fraction(7, 2)
    assert type((Q - ONE).eval({"q": 3})) is Fraction
    with pytest.raises(ValueError, match="variable t"):
        f.eval({"q": 3})
    # as in substitute, a binding is a nonzero monomial
    with pytest.raises(TypeError):
        f.eval({"q": 0, "t": 2})


def test_eq_coerces_mpoly():
    z = MPoly.var("z")
    assert RatFunc(z) == z and z == RatFunc(z)
    assert RatFunc(z) != MPoly.var("w")
    assert RatFunc(z).__eq__("z") is NotImplemented


def test_substitute_refuses_non_monomial():
    for binding in ({"z": ONE + U}, {"z": ONE / (ONE + U)}, {"z": 0}):
        with pytest.raises(TypeError):
            (Z - W).substitute(binding)


def test_substitute_vanishing_denominator():
    with pytest.raises(ZeroDivisionError):
        (ONE / (Q - ONE)).substitute({"q": 1})


def test_u_to_q_parity():
    f, ok = u_to_q(U * U + ONE)
    assert ok and f == Q + ONE
    f2, ok2 = u_to_q(U ** 3 / (U * U - ONE))
    assert not ok2


def _random_ratfunc(rng):
    num = MPoly.const(0)
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(-1, 2) for _ in range(5))
        num = num + MPoly.monomial(e, Fraction(rng.randint(-3, 3)))
    den = MPoly.const(0)
    while den.is_zero():
        den = MPoly.const(rng.randint(-2, 2)) + MPoly.monomial(
            (0, 0, 1, 0, 0), Fraction(rng.randint(0, 2)))
    return RatFunc(num + MPoly.const(1), den)


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (_random_ratfunc(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == RatFunc(0)
        if not a.num.is_zero():
            assert a * (ONE / a) == ONE


def test_substitute_homomorphism():
    rng = random.Random(11)
    bindings = {"z": T * U, "w": -(ONE / U), "q": U * U}
    for _ in range(10):
        f, g = _random_ratfunc(rng), _random_ratfunc(rng)
        assert (f * g).substitute(bindings) == \
            f.substitute(bindings) * g.substitute(bindings)
        assert (f + g).substitute(bindings) == \
            f.substitute(bindings) + g.substitute(bindings)


def test_eval_of_substitute_composes():
    rng = random.Random(13)
    point = {"z": Fraction(2), "w": Fraction(1, 3), "q": Fraction(5),
             "t": Fraction(-1), "u": Fraction(3)}
    bindings = {"z": T * U, "w": ONE / U}
    composed = dict(point)
    composed["z"] = (T * U).eval(point)
    composed["w"] = (ONE / U).eval(point)
    for _ in range(10):
        f = _random_ratfunc(rng)
        assert f.substitute(bindings).eval(point) == f.eval(composed)


def test_text_roundtrip():
    f = (Z - W) ** 2 / (Q * T * T - ONE)
    assert RatFunc.parse(f.text()) == f
    assert MPoly.parse("0") == MPoly()
    assert RatFunc.parse("0").is_zero()


def _integer(p):
    """Every coefficient of the MPoly p is an int."""
    return all(type(c) is int for c in p.terms.values())


def _over_z(terms):
    """(m * p, m) for a term dict p of Fraction coefficients: the MPoly of
    m * p, with m the least common denominator of its coefficients."""
    m = math.lcm(*(c.denominator for c in terms.values()))
    return MPoly({e: c * m for e, c in terms.items()}), m


def test_integral_coefficients_stored_as_int():
    z = MPoly.var("z")
    assert MPoly.const(Fraction(4, 2)).terms == {(0, 0, 0, 0, 0): 2}
    assert MPoly.parse("2/2*z^1") == z
    f = RatFunc(MPoly.parse("2*z^1 + 4*w^2"), MPoly.parse("2*q^1"))
    red = f.simplified()
    assert red == f and red.den.is_one()
    cases = [MPoly.const(Fraction(4, 2)), MPoly.parse("2/2*z^1"),
             RatFunc(z * 2, MPoly.const(2)).as_mpoly(), red.num, red.den]
    for p in cases:
        assert p.terms and _integer(p), p


def test_division_by_int_keeps_an_integer_denominator():
    half = RatFunc(MPoly.var("z"), MPoly.const(2)).simplified()
    assert _stored(half) == (MPoly.var("z"), MPoly.const(2))
    assert half.as_mpoly() is None
    # (z^2 - 1) / (2z - 2) = (z + 1) / 2
    q = ((Z * Z - ONE) / (2 * Z - 2)).simplified()
    assert _stored(q) == (MPoly.parse("1 + 1*z^1"), MPoly.const(2))
    # a den c x^e leaves x^e in num and keeps c
    quarter = ((2 * Z) ** -2).simplified()
    assert _stored(quarter) == (MPoly.parse("1*z^-2"), MPoly.const(4))
    # only a unit +-x^e of the ring has a negative power in it
    assert (-MPoly.var("z")) ** -3 == MPoly.parse("-1*z^-3")
    with pytest.raises(ValueError, match="non-unit"):
        (2 * MPoly.var("z")) ** -2


def test_float_coefficient_rejected():
    z = MPoly.var("z")
    for make in (lambda: MPoly.const(0.5),
                 lambda: MPoly.monomial((1, 0, 0, 0, 0), 2.0),
                 lambda: RatFunc(0.5), lambda: RatFunc(Z.num, 2.0),
                 lambda: z * 0.5, lambda: 0.5 * z,
                 lambda: z + 0.5, lambda: z - 0.5,
                 lambda: 0.5 + z, lambda: 0.5 - z,
                 lambda: Z + 0.5, lambda: Z * 0.5,
                 lambda: Z - 0.5, lambda: 0.5 - Z,
                 lambda: 0.5 / Z, lambda: "a" / Z,
                 lambda: MPoly.var("z", 1.5),
                 lambda: MPoly.monomial((1.0, 0, 0, 0, 0)),
                 lambda: z ** Fraction(2)):
        with pytest.raises(TypeError):
            make()
    # an exponent is read through operator.index; the error names it
    for power in (lambda: z ** 0.5, lambda: Z ** 0.5):
        with pytest.raises(TypeError, match="not an integer exponent: 0.5"):
            power()
    assert MPoly.var("z", True) == z and z ** True == z
    z1 = (1, 0, 0, 0, 0)
    assert z + 1 == MPoly({z1: 1, ea.ZERO_EXP: 1})
    assert z - Fraction(2, 2) == MPoly({z1: 1, ea.ZERO_EXP: -1})
    assert _stored(Z - Fraction(1, 2)) == (MPoly({z1: 2, ea.ZERO_EXP: -1}),
                                           MPoly.const(2))


def test_mpoly_on_the_left_of_a_ratfunc_or_scalar():
    # an MPoly operator answers only MPolys and exact scalars, so a RatFunc
    # on the right gets its reflected operator, and a scalar on the left
    # gets the MPoly's
    z = MPoly.var("z")
    assert _stored(z + Z) == (MPoly.parse("2*z^1"), MPoly.const(1))
    assert _stored(z * Z) == (MPoly.parse("1*z^2"), MPoly.const(1))
    assert type(z + Z) is RatFunc and type(z * Z) is RatFunc
    assert (z - Z).is_zero() and type(z - Z) is RatFunc
    assert 1 + z == z + 1 == MPoly.parse("1 + 1*z^1")
    assert 1 - z == -(z - 1) == MPoly.parse("1 + -1*z^1")


def test_exact_scalars_accepted():
    # ints, bools and Fractions enter every RatFunc entry point in stored
    # form, a Fraction as an int numerator over a positive int
    # denominator: num and den compared term by term, coefficient types
    # included
    z = MPoly.var("z")

    def form(x):
        return [sorted((e, type(c), c) for e, c in p.terms.items())
                for p in (x.num, x.den)] + [x.stored]

    one, z1 = ea.ZERO_EXP, (1, 0, 0, 0, 0)
    over_one = [(one, int, 1)]
    cases = [
        (RatFunc(True), [[(one, int, 1)], over_one, True]),
        (RatFunc(Fraction(4, 2)), [[(one, int, 2)], over_one, True]),
        (RatFunc(Fraction(1, 2)), [[(one, int, 1)], [(one, int, 2)], True]),
        (RatFunc(Fraction(-4, 6)),
         [[(one, int, -2)], [(one, int, 3)], True]),
        (RatFunc(z, True), [[(z1, int, 1)], over_one, True]),
        (RatFunc(z, 2), [[(z1, int, 1)], [(one, int, 2)], False]),
        (RatFunc(z, Fraction(2, 3)), [[(z1, int, 3)], [(one, int, 2)], False]),
        (RatFunc(Fraction(1, 2), z),
         [[(one, int, 1)], [(z1, int, 2)], False]),
        (Z + True, [[(one, int, 1), (z1, int, 1)], over_one, True]),
        (True + Z, [[(one, int, 1), (z1, int, 1)], over_one, True]),
        (Z * False, [[], over_one, True]),
        (Z - Fraction(1, 2),
         [[(one, int, -1), (z1, int, 2)], [(one, int, 2)], True]),
        (Z / 3, [[(z1, int, 1)], [(one, int, 3)], False]),
        (RatFunc(z * True), [[(z1, int, 1)], over_one, True]),
        (RatFunc(z * 0), [[], over_one, True]),
        (Z * Fraction(1, 2), [[(z1, int, 1)], [(one, int, 2)], False]),
        (RatFunc(z * Fraction(2)), [[(z1, int, 2)], over_one, True]),
        (RatFunc(MPoly.const(True)), [[(one, int, 1)], over_one, True]),
        (RatFunc(MPoly.const(0)), [[], over_one, True]),
    ]
    for x, expected in cases:
        assert form(x) == expected, x


def test_mpoly_refuses_rational_coefficients():
    # an MPoly is a Laurent polynomial over Z; rational content belongs in
    # a RatFunc's denominator (`Z * Fraction(1, 2)` is z over 2, as
    # test_exact_scalars_accepted pins)
    for make in (lambda: MPoly.const(Fraction(1, 2)),
                 lambda: MPoly.parse("1/2*z^1"),
                 lambda: MPoly.var("z") * Fraction(1, 2),
                 lambda: Fraction(1, 2) * MPoly.var("z"),
                 lambda: MPoly.var("z") + Fraction(1, 2),
                 lambda: MPoly({ea.ZERO_EXP: Fraction(2, 3)})):
        with pytest.raises(TypeError, match="not an integer coefficient"):
            make()


def _fraction_value(f, point):
    """f at a point by Fraction arithmetic on its terms: the oracle of
    `substitute` and `eval` at rational points."""
    def value(p):
        return sum(c * math.prod(Fraction(point[v]) ** x
                                 for v, x in zip(VARS, e))
                   for e, c in p.terms.items())
    return value(f.num) / value(f.den)


def test_substitute_and_eval_at_rational_points():
    # a rational binding enters as an int numerator over a positive int
    # denominator, so the image has int num and den, here on a value with
    # negative q-exponents in num and den
    f = RatFunc(MPoly.parse("1*z^1*w^1 + -3*q^-2 + 1*t^1 + 2*u^1"),
                MPoly.parse("2 + 1*z^1 + 1*w^1*q^-1"))
    iq = VARS.index("q")
    assert min(e[iq] for p in (f.num, f.den) for e in p.terms) < 0
    rest = {"z": Fraction(-1, 3), "w": 7, "q": Fraction(3, 4), "t": 2,
            "u": Fraction(5, 2)}
    for binding in ({"z": Fraction(3, 2)}, {"w": Fraction(2, 5)}, {"q": 5},
                    {"z": Fraction(3, 2), "w": Fraction(2, 5), "q": 5}):
        image = f.substitute(binding)
        for p in (image.num, image.den):
            assert p.terms and _integer(p), (binding, image)
        point = dict(rest, **binding)
        expected = _fraction_value(f, point)
        assert image.eval(rest) == expected, binding
        assert f.eval(point) == expected, binding


def _random_rational(rng):
    """A polynomial with rational coefficients, its rational content in a
    constant denominator."""
    p = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 2) for _ in range(5))
        p[e] = p.get(e, 0) + Fraction(rng.randint(-4, 4),
                                      rng.choice((1, 1, 2, 3)))
    p = {e: c for e, c in p.items() if c}
    return RatFunc(*_over_z(p)) if p else RatFunc(2)


def test_no_float_coefficients_randomized():
    rng = random.Random(19)
    for _ in range(25):
        a, b = _random_rational(rng), _random_rational(rng)
        prod = a * b
        results = [a + b, a - b, prod, a * 3, a ** 2, a ** 3, a / 4]
        image = (a / b).substitute({"t": -(ONE / U), "z": T * U})
        reduced = [(prod / b).simplified(), (a * 2 / 4).simplified(),
                   (a / b).simplified(), image.simplified()]
        assert (prod / b).simplified() == a
        for x in results + reduced + [image]:
            assert _integer(x.num) and _integer(x.den), x


def test_sum_stored_in_lowest_terms():
    f = ONE / (Z * Z - ONE) + ONE / (Z - ONE)
    assert f.num == MPoly.parse("2 + 1*z^1")
    assert f.den == MPoly.parse("-1 + 1*z^2")
    # addends over one denominator are reduced too
    f = ONE / (Z * Z - ONE) + Z / (Z * Z - ONE)
    assert (f.num, f.den) == (MPoly.const(1), MPoly.parse("-1 + 1*z^1"))


def _random_unreduced(rng):
    """A RatFunc with a non-monomial denominator and a common factor left
    in its numerator and denominator."""
    common = MPoly.const(rng.randint(2, 3)) + MPoly.monomial(
        tuple(rng.randint(0, 1) for _ in range(5)), rng.choice((-1, 1, 2)))
    den = MPoly.monomial((0, 0, rng.randint(1, 2), 0, 0), rng.randint(1, 3)) \
        + MPoly.const(rng.choice((-2, -1, 1)))
    x = _random_rational(rng)
    return RatFunc(x.num * common, x.den * den * common)


def test_sum_reduced_randomized():
    rng = random.Random(23)
    for _ in range(25):
        a, b = _random_unreduced(rng), _random_unreduced(rng)
        assert a.den != b.den
        for got, expected in ((a + b, (a + b).simplified()),
                              (ZERO + a, a.simplified())):
            assert (got.num, got.den) == (expected.num, expected.den)


def _cross_multiplied(terms):
    """The sum rule `RatFunc.sum` replaced: cross-multiply over the product
    of the denominators, then reduce once."""
    num, den = MPoly(), MPoly.const(1)
    for t in terms:
        num, den = num * t.den + t.num * den, den * t.den
    return RatFunc(num, den).simplified()


def _random_addend(rng, earlier):
    """One addend of a random sum; some reuse the denominator of, or
    cancel, an earlier addend."""
    kind = rng.randrange(7 if earlier else 5)
    shift = MPoly.monomial(tuple(rng.randint(-2, 1) for _ in range(5)))
    if kind == 0:
        return _random_unreduced(rng)
    if kind == 1:  # a monomial denominator, negative exponents included
        x = _random_rational(rng)
        return RatFunc(x.num, x.den * shift * rng.randint(1, 3))
    if kind == 2:  # a constant denominator k/2, rational content included
        x = _random_rational(rng)
        return RatFunc(x.num * 2, x.den * rng.randint(1, 3))
    if kind == 3:  # a Laurent polynomial
        x = _random_rational(rng)
        return RatFunc(x.num * shift, x.den)
    if kind == 4:
        return RatFunc(MPoly(), rng.choice((MPoly.const(1),
                                            _random_unreduced(rng).den)))
    other = rng.choice(earlier)
    if kind == 5:
        x = _random_rational(rng)
        return RatFunc(x.num * shift, x.den * other.den)
    return -other


def test_sum_matches_cross_multiplied_randomized():
    rng = random.Random(29)
    for _ in range(30):
        terms = []
        for _ in range(rng.randint(0, 6)):
            terms.append(_random_addend(rng, terms))
        expected = _cross_multiplied(terms)
        for order in itertools.permutations(range(len(terms))):
            got = RatFunc.sum([terms[i] for i in order])
            assert (got.num, got.den) == (expected.num, expected.den)


def test_normal_form_rules():
    """The stored form of simplified(), rule by rule."""
    # the leading den coefficient in lex order on (z, w, q, t, u) is positive
    f = RatFunc(MPoly.parse("1 + 1*q^1"), MPoly.parse("1 + -1*z^1")).simplified()
    assert (f.num, f.den) == (MPoly.parse("-1 + -1*q^1"),
                              MPoly.parse("-1 + 1*z^1"))
    # contents are cancelled: num and den have coprime contents.  Here
    # num/den is (3/2 + 3/2 w) / (9/4 z + 3zw - 6q), its rational content
    # moved into the constants 2 and 4
    f = RatFunc(MPoly.parse("3 + 3*w^1") * 4,
                MPoly.parse("9*z^1 + 12*z^1*w^1 + -24*q^1") * 2).simplified()
    assert (f.num, f.den) == (MPoly.parse("2 + 2*w^1"),
                              MPoly.parse("-8*q^1 + 3*z^1 + 4*z^1*w^1"))
    # a monomial factor of den moves to num, so den has min exponents 0
    f = RatFunc(MPoly.parse("1*w^1"),
                MPoly.parse("1*z^1*t^2 + 1*z^2*t^2")).simplified()
    assert (f.num, f.den) == (MPoly.parse("1*z^-1*w^1*t^-2"),
                              MPoly.parse("1 + 1*z^1"))
    # a den that reduces to a monomial c x^e leaves x^e in num and keeps
    # c, made positive
    f = RatFunc(MPoly.parse("2 + 2*w^1"),
                MPoly.parse("-3*z^1 + -3*z^1*w^1")).simplified()
    assert (f.num, f.den) == (MPoly.parse("-2*z^-1"), MPoly.const(3))
    # a common factor is cancelled, whatever its content
    common = MPoly.parse("7 + -5*z^1*w^2 + 11*q^3")
    f = RatFunc(MPoly.parse("1 + 1*t^1") * common,
                MPoly.parse("-2 + 1*t^2") * common * 3).simplified()
    assert (f.num, f.den) == (MPoly.parse("1 + 1*t^1"),
                              MPoly.parse("-6 + 3*t^2"))


def _sympy_simplified(f):
    """The reference reduction: sympy's `cancel` on num and den shifted to
    polynomials, then the same shift back."""
    from sympy import QQ
    from sympy.polys.rings import ring

    R = ring("z w q t u", QQ)[0]

    def to_ring(p):
        return R.from_dict({e: QQ(c.numerator, c.denominator)
                            for e, c in p.terms.items()})

    def from_ring(el):
        return MPoly({tuple(e): Fraction(int(c.numerator), int(c.denominator))
                      for e, c in el.terms()})

    def shift(p, delta):
        return MPoly({tuple(a + b for a, b in zip(e, delta)): c
                      for e, c in p.terms.items()})

    def lowest(p):
        return tuple(min((e[i] for e in p.terms), default=0)
                     for i in range(5))

    sn, sd = lowest(f.num), lowest(f.den)
    n, d = to_ring(shift(f.num, tuple(-x for x in sn))).cancel(
        to_ring(shift(f.den, tuple(-x for x in sd))))
    num = shift(from_ring(n), tuple(a - b for a, b in zip(sn, sd)))
    return RatFunc(num, from_ring(d))


def _random_laurent(rng, used, terms):
    """A Laurent polynomial with rational coefficients, as (m * p, m)."""
    p = {}
    for _ in range(terms):
        e = [0] * 5
        for i in used:
            e[i] = rng.randint(-2, 3)
        e = tuple(e)
        p[e] = p.get(e, 0) + Fraction(rng.randint(-9, 9),
                                      rng.choice((1, 1, 2, 3, 6)))
    return _over_z({e: c for e, c in p.items() if c})


def _random_cancel_input(rng, a, b, common):
    """(a * common) / (b * common * k) for rational (m * p, m) pairs, its
    rational content moved into the denominators; None if b * common is
    zero or a monomial."""
    (a, ma), (b, mb), (common, _) = a, b, common
    if b.is_zero() or common.is_zero() or (b * common).is_monomial():
        return None
    return RatFunc(a * common * mb,
                   b * common * (ma * rng.choice((1, -3, 1000003))))


def test_simplified_matches_sympy_cancel():
    pytest.importorskip("sympy")
    rng = random.Random(29)
    checked = 0
    while checked < 2000:
        used = rng.sample(range(5), rng.randint(1, 4))
        f = _random_cancel_input(rng, *(
            _random_laurent(rng, used, rng.randint(1, 4)) for _ in range(3)))
        if f is None:
            continue
        got, expected = f.simplified(), _sympy_simplified(f)
        assert (got.num.terms, got.den.terms) == \
            (expected.num.terms, expected.den.terms), f
        assert _integer(got.num) and _integer(got.den)
        checked += 1
    # factors of 15-40 terms, so that products and the gcd's exact
    # divisions are large enough to be packed
    checked = 0
    while checked < 100:
        used = rng.sample(range(5), rng.randint(2, 3))
        f = _random_cancel_input(rng, *(
            _random_laurent(rng, used, rng.randint(15, 40))
            for _ in range(3)))
        if f is None:
            continue
        got, expected = f.simplified(), _sympy_simplified(f)
        assert (got.num.terms, got.den.terms) == \
            (expected.num.terms, expected.den.terms), f
        assert _integer(got.num) and _integer(got.den)
        checked += 1


# -- packed and one-term products against the loop they replace --------------

def _random_terms(rng, nterms, lo, spans, bits, rational):
    p = {}
    while len(p) < nterms:
        e = tuple(a + rng.randrange(s) for a, s in zip(lo, spans))
        c = rng.randint(-2 ** bits, 2 ** bits) or 1
        p[e] = Fraction(c, rng.choice((1, 2, 3, 7, 12))) if rational else c
    return p


def test_packed_product_matches_schoolbook(monkeypatch):
    school = ea._school_mul
    fallbacks = []
    monkeypatch.setattr(ea, "_school_mul",
                        lambda f, g: fallbacks.append(1) or school(f, g))
    rng = random.Random(37)
    for bits in (3, 12, 28, 60, 70, 200):
        for rational in (False, True):
            # negative exponents in all five variables, and a product box
            # small enough for the size rule
            f, g = (_random_terms(rng, rng.randint(30, 40),
                                  [rng.randint(-4, -1) for _ in range(5)],
                                  (3,) * 5, bits, rational) for _ in range(2))
            # rational content moves into the constants mf and mg, and
            # the packed product of the integer parts is mf * mg times the
            # schoolbook product over Q
            (pf, mf), (pg, mg) = _over_z(f), _over_z(g)
            got = pf * pg
            assert not fallbacks, (bits, rational)
            assert got.terms == {e: c * mf * mg
                                 for e, c in school(f, g).items()}
            assert _integer(got)
            # equal coefficients of one sign: the product's coefficients
            # come near the bound that the digit width is taken from
            f, g = {e: 2 ** bits for e in f}, {e: -2 ** bits for e in g}
            assert ea._mul(f, g) == school(f, g) and not fallbacks
    # 20 x 20 terms spread over a box of 101**3 positions: too sparse to pack
    f, g = (_random_terms(rng, 20, (0, -50, 0, 0, 0), (51, 51, 51, 1, 1), 70,
                          False) for _ in range(2))
    assert ea._mul(f, g) == school(f, g) and fallbacks


def test_one_term_product_matches_schoolbook():
    rng = random.Random(41)
    for _ in range(400):
        e0 = tuple(rng.randint(-3, 3) for _ in range(5))
        c0 = rng.choice((rng.randint(-10 ** 6, 10 ** 6) or 2, 1, -1,
                         Fraction(rng.randint(1, 99), 100), Fraction(1)))
        if rng.random() < 0.2:
            e0, c0 = (0,) * 5, 1  # the unit
        one = {e0: c0}
        other = _random_terms(rng, rng.randint(1, 60), (-3,) * 5, (7,) * 5,
                              rng.choice((3, 70)), False)
        other = {e: Fraction(c, 3) if rng.random() < 0.3 else c
                 for e, c in other.items()}
        saved = dict(one), dict(other)
        for f, g in ((one, other), (other, one)):
            got, expected = ea._mul(f, g), ea._school_mul(f, g)
            assert got == expected, (e0, c0)
            assert [type(got[e]) for e in expected] == \
                [type(c) for c in expected.values()], (e0, c0)
            assert got is not f and got is not g
        assert (one, other) == saved
        assert [type(c) for c in other.values()] == \
            [type(c) for c in saved[1].values()]


def _univariate(coeffs, var=0):
    return {tuple(i if j == var else 0 for j in range(5)): c
            for i, c in enumerate(coeffs) if c}


def _power(p, n):
    out = {(0,) * 5: 1}
    for _ in range(n):
        out = ea._school_mul(out, p)
    return out


# -- the heuristic gcd on inputs that stress its digit width -----------------

def _heugcd_widths(monkeypatch):
    """The list that gets the b of each evaluation by `_heugcd`."""
    widths = []
    evaluate = ea._evaluate
    monkeypatch.setattr(ea, "_evaluate",
                        lambda p, i, b: widths.append(b) or evaluate(p, i, b))
    return widths


def _heugcd_products(monkeypatch):
    """The list that gets one entry per product formed by `_heugcd`."""
    products = []
    mul = ea._mul

    def counted(f, g):
        if sys._getframe(1).f_code is ea._heugcd.__code__:
            products.append(1)
        return mul(f, g)
    monkeypatch.setattr(ea, "_mul", counted)
    return products


def test_gcd_cofactor_outgrows_first_width(monkeypatch):
    # (z + 1)^100 (z - 1)^7 / (z - 1)^7: the cofactor's coefficients exceed
    # the dividend's, so xi = 2**92 from the dividend cannot hold them and
    # both certificates fail until b doubles
    widths = _heugcd_widths(monkeypatch)
    g = _power(_univariate([-1, 1]), 7)
    q = _power(_univariate([1, 1]), 100)
    f = ea._school_mul(q, g)
    assert max(map(abs, f.values())).bit_length() == 86
    red = RatFunc(MPoly(f), MPoly(g)).simplified()
    assert widths == [92, 92, 184, 184]
    assert (red.num.terms, red.den) == (q, MPoly.const(1))


def test_gcd_bound_fails_products_hold(monkeypatch):
    # h = 1 + z + ... + z^127 divides z^128 - 1 = h (z - 1) and h (z + 1):
    # |h|_1 = 128 reaches xi/2 = 2**7 (xi = 2**8 from |h (z + 1)| = 2), so
    # the bound cannot prove it and the two products do, at the first width
    widths = _heugcd_widths(monkeypatch)
    products = _heugcd_products(monkeypatch)
    h = _univariate([1] * 128)
    f = _univariate([-1] + [0] * 127 + [1])
    g = ea._school_mul(h, _univariate([1, 1]))
    red = RatFunc(MPoly(f), MPoly(g)).simplified()
    assert (widths, len(products)) == ([8, 8], 2)
    assert (red.num.terms, red.den.terms) == (_univariate([-1, 1]),
                                             _univariate([1, 1]))


def test_gcd_bound_refuses_wrapped_cofactor(monkeypatch):
    # (z - 1) q / (z - 1) with q = 1 + 5z + ... + 257z^64 + ... + 5z^127 +
    # z^128: the dividend's coefficients are +-1 and +-4, so xi = 2**9,
    # and q's reach 257 > xi/2, so q is read wrapped, with digits up to
    # 255.  |h|_1 = 2 times 255 is at least xi/2, so the bound refuses,
    # the products refuse, and b doubles.  It is below xi, and 255 times
    # |h|_inf = 1 is below xi/2: a bound against xi, or with |h|_inf in
    # place of |h|_1, would accept the wrapped quotient
    q = _univariate([1 + 4 * min(j, 128 - j) for j in range(129)])
    h = _univariate([-1, 1])
    f = ea._school_mul(h, q)
    assert max(map(abs, f.values())) == 4
    wrapped = ea._interpolate(ea._evaluate(q, 0, 9), 0, 9)
    assert max(map(abs, wrapped.values())) == 255
    widths = _heugcd_widths(monkeypatch)
    red = RatFunc(MPoly(f), MPoly(h)).simplified()
    assert widths == [9, 9, 18, 18]
    assert (red.num.terms, red.den) == (q, MPoly.const(1))


def test_constant_image_is_not_evaluated_again(monkeypatch):
    # z = 2**7 takes 1 + z to the constant 129, whose gcd with the image
    # 1 + 128w of 1 + zw is the content 1: no evaluation in w follows
    widths = _heugcd_widths(monkeypatch)
    red = RatFunc(MPoly.parse("1 + 1*z^1"),
                  MPoly.parse("1 + 1*z^1*w^1")).simplified()
    assert widths == [7, 7]
    assert _stored(red) == (MPoly.parse("1 + 1*z^1"),
                            MPoly.parse("1 + 1*z^1*w^1"))


def test_hlv_gcds_proved_by_the_bound(monkeypatch):
    # the extra bits of the first width let the bound prove all but one
    # level of the gcds of HH_{(2,1)|(2,1), 4}; that level forms two products
    from charstacks.hlvkernel import hlv_HH

    products = _heugcd_products(monkeypatch)
    hlv_HH(((2, 1), (2, 1)), 4)
    assert len(products) <= 2


@pytest.mark.parametrize("mus, m, budget", [
    (((2, 1), (2, 1)), 4, 64),
    (((2,), (1, 1)), 4, 14),
    (((3,),), 2, 47),
    # the smallest input with a sum of unreduced addends over two
    # denominators, each reduced by a gcd of its own
    (((2,), (2,)), 3, 27),
    (((3, 1),), 4, 100),
], ids=["(2,1)|(2,1)-m4", "(2)|(1,1)-m4", "(3)-m2", "(2)|(2)-m3", "(3,1)-m4"])
def test_hlv_gcd_budget(monkeypatch, mus, m, budget):
    # the gcd work of HH, counted rather than timed: top-level `_heugcd`
    # calls as of the one grouping rule of `RatFunc.sum`
    from charstacks.hlvkernel import hlv_HH

    calls = _top_level_gcds(monkeypatch)
    hlv_HH(mus, m)
    assert len(calls) <= budget


def test_macdonald_layer_makes_no_gcd(monkeypatch):
    # H~_mu, its Schur expansion and its specialisation have integer
    # polynomial coefficients over 1, and a sum groups addends over 1 and
    # adds their numerators: none of them reaches the gcd
    from charstacks import macdonald as md
    from charstacks import partitions as pt

    calls = _top_level_gcds(monkeypatch)
    for mu in pt.enumerate_partitions(5):
        md.modified_H(mu)
        md.schur_coefficients(mu)
        md.specialized_H(mu)
    # a rational addend is a value over a constant, which meets an
    # integer gcd
    s = RatFunc.sum([Z, -W * W, RatFunc(MPoly.parse("1*q^1"), 2), ONE, -Z])
    assert calls == []
    assert _stored(s) == (MPoly.parse("2 + 1*q^1 + -2*w^2"),
                          MPoly.const(2))


def test_gcd_divisor_larger_than_dividend():
    # g's coefficients exceed f's, so the evaluation point must come from
    # the larger of the two
    g = _power(_univariate([1, 1]), 40)
    q = _power(_univariate([-1, 1]), 6)
    f = ea._school_mul(q, g)
    assert max(map(abs, g.values())) > max(map(abs, f.values()))
    red = RatFunc(MPoly(f), MPoly(g)).simplified()
    assert (red.num.terms, red.den) == (q, MPoly.const(1))
    red = RatFunc(MPoly(g), MPoly(f)).simplified()
    assert (red.num, red.den.terms) == (MPoly.const(1), q)


def test_gcd_keeps_non_divisors():
    rng = random.Random(41)
    g = _random_terms(rng, 12, (0,) * 5, (4, 4, 1, 1, 1), 20, False)
    q = _random_terms(rng, 30, (0,) * 5, (6, 6, 1, 1, 1), 20, False)
    f = ea._school_mul(q, g)
    red = RatFunc(MPoly(f), MPoly(g)).simplified()
    assert (red.num.terms, red.den) == (q, MPoly.const(1))
    # f plus a monomial shares only a monomial, a unit here, with g
    f[min(f)] += 1
    red = RatFunc(MPoly(f), MPoly(g)).simplified()
    assert red == RatFunc(MPoly(f), MPoly(g))
    assert (len(red.num.terms), len(red.den.terms)) == (len(f), len(g))
    # With x = u and y = z, P(x) = 4095 (1 + x + ... + x^15) + 15 x^16 and
    # H(y) = 1 + y + y^2 + y^3, the divisor (x - 1) H(y) does not divide
    # P(x) H(y), since P(1) != 0, yet packed with 16-bit digits (y as X^17,
    # x as X = 2^16) X - 1 = P(1) divides the image of P(x) H(y): an
    # integer image can make a non-divisor look like one.
    h = {(i, 0, 0, 0, 0): 1 for i in range(4)}
    p = _univariate([4095] * 16 + [15], var=4)
    u1 = _univariate([-1, 1], var=4)
    red = RatFunc(MPoly(ea._school_mul(p, h)),
                  MPoly(ea._school_mul(u1, h))).simplified()
    assert (red.num.terms, red.den.terms) == (p, u1)


# -- sums and products of values in lowest terms -------------------------------
# ea._add_lowest and ea._mul_lowest take operands in stored form and must
# return what RatFunc.sum and simplified() return, num and den compared
# separately, while skipping the gcds that cannot cancel anything.

def _is_constant(p):
    return len(p) == 1 and ea.ZERO_EXP in p


def _top_level_gcds(monkeypatch):
    """The list that gets the operands of each `_heugcd` call not made by
    `_heugcd` itself, where neither operand is a constant: a call with a
    constant operand is an integer gcd of contents."""
    calls = []
    heugcd = ea._heugcd

    def counted(f, g):
        if (sys._getframe(1).f_code is not heugcd.__code__
                and not _is_constant(f) and not _is_constant(g)):
            calls.append((f, g))
        return heugcd(f, g)
    monkeypatch.setattr(ea, "_heugcd", counted)
    return calls


def _stored(x):
    return x.num, x.den


def _random_lowest(rng, factors):
    """A value in stored form: a Laurent polynomial with rational
    coefficients over a constant, a monomial denominator, or a quotient
    whose denominator is a product of some of `factors` times a
    content."""
    kind = rng.randrange(5)
    shift = MPoly.monomial(tuple(rng.randint(-2, 1) for _ in range(5)))
    if kind == 0:
        x = _random_rational(rng)
        return RatFunc(x.num * shift, x.den).simplified()
    if kind == 1:
        x = _random_rational(rng)
        return RatFunc(x.num, x.den * shift * rng.randint(1, 3)).simplified()
    den = MPoly.const(rng.choice((1, 1, 2, 3, 6)))
    for f in rng.sample(factors, rng.randint(1, 2)):
        den = den * f
    x = _random_rational(rng)
    return RatFunc(x.num * shift, x.den * den).simplified()


FACTORS = [MPoly.parse(s) for s in (
    "-1 + 1*z^1", "1 + 1*z^1", "4 + 1*z^1", "-1 + 1*z^2*w^1",
    "1*z^1 + -1*w^1", "2 + 1*q^1*t^1", "1 + 1*z^1*u^2")]


def test_add_lowest_matches_sum_randomized():
    rng = random.Random(43)
    for _ in range(300):
        x = _random_lowest(rng, FACTORS)
        kind = rng.randrange(5)
        if kind == 0:  # an equal denominator, times any rational content
            r = _random_rational(rng)
            y = RatFunc(r.num, r.den * x.den).simplified()
        elif kind == 1:  # a zero sum
            y = -x
        elif kind == 2:  # a sum that cancels factors of the common one
            y = (_random_lowest(rng, FACTORS) - x).simplified()
        else:
            y = _random_lowest(rng, FACTORS)
        for a, b in ((x, y), (y, x), (x, ZERO), (ZERO, x)):
            # `RatFunc.sum` adds marked values over two denominators by
            # `_add_lowest` itself and groups those over one, so both are
            # checked against the rule they replaced
            expected = _stored(_cross_multiplied((a, b)))
            assert _stored(ea._add_lowest(a, b)) == expected, (a, b)
            assert _stored(RatFunc.sum((a, b))) == expected, (a, b)


def test_mul_lowest_matches_simplified_randomized():
    rng = random.Random(47)
    for _ in range(200):
        x = _random_lowest(rng, FACTORS)
        p = MPoly.monomial(tuple(rng.randint(-2, 1) for _ in range(5)),
                           rng.choice((-2, 1, 3)))
        for f in rng.sample(FACTORS, rng.randint(0, 2)):
            p = p * f
        p = p + rng.choice((MPoly(), MPoly.parse("1*w^2")))
        for q in (p, MPoly()):
            assert _stored(ea._mul_lowest(x, q)) == \
                _stored((x * RatFunc(q)).simplified()), (x, q)


def test_add_lowest_contents():
    # the gcd of the denominators is the content 3: the sum is reduced by
    # an integer gcd, here 1 and then 3
    x, y = ONE / (3 * Z - 3), ONE / (3 * Z + 3)
    s = ea._add_lowest(x.simplified(), y.simplified())
    assert _stored(s) == (MPoly.parse("2*z^1"), MPoly.parse("-3 + 3*z^2"))
    x, y = ONE / (3 * Z + 3), -ONE / (3 * Z + 12)
    s = ea._add_lowest(x.simplified(), y.simplified())
    assert _stored(s) == (MPoly.const(1), MPoly.parse("4 + 5*z^1 + 1*z^2"))
    assert _stored(s) == _stored(RatFunc.sum((x, y)))


def test_add_lowest_denominator_one_with_fractions():
    # rational content is a constant denominator, added like any other:
    # x = 1/2 z^-1 + 2/3 w over the lcm 6 of its coefficients'
    # denominators
    x = RatFunc(MPoly.parse("3*z^-1 + 4*w^1"), 6).simplified()
    assert _stored(x) == (MPoly.parse("3*z^-1 + 4*w^1"), MPoly.const(6))
    y = (Z / (2 * Z + 4)).simplified()
    s = ea._add_lowest(x, y)
    assert _stored(s) == _stored(RatFunc.sum((x, y)))
    assert s == x + y and not s.den.is_one()
    # two constant denominators give a constant denominator again
    s = ea._add_lowest(x, -x + RatFunc(Fraction(1, 2)))
    assert _stored(s) == (MPoly.const(1), MPoly.const(2))
    # and a sum whose rational content cancels is over 1
    s = ea._add_lowest(x, -x + RatFunc(2))
    assert _stored(s) == (MPoly.const(2), MPoly.const(1))


def test_add_lowest_coprime_denominators_one_gcd(monkeypatch):
    x = (ONE / (Z - ONE)).simplified()
    y = ((W + ONE) / (Z * Z * W - ONE)).simplified()
    calls = _top_level_gcds(monkeypatch)
    s = ea._add_lowest(x, y)
    assert len(calls) == 1  # of the denominators only
    assert _stored(s) == _stored(RatFunc.sum((x, y)))


def test_fold_meeting_equal_denominators_makes_no_evaluation(monkeypatch):
    # the running sum 1/(z - 1) + 1/(z + 1) = 2z/(z^2 - 1) meets the third
    # addend's denominator; the numerators cancel, so that step takes no gcd
    x, y = (ONE / (Z - ONE)).simplified(), (ONE / (Z + ONE)).simplified()
    s = RatFunc.sum((x, y))
    neg = (-s).simplified()
    widths = _heugcd_widths(monkeypatch)
    RatFunc.sum((x, y))
    first = len(widths)
    assert first and RatFunc.sum((x, y, neg)).num.is_zero()
    assert len(widths) == 2 * first
    # with no cancellation the one gcd is of the new numerator against d
    w = (ONE / (Z * Z - ONE)).simplified()
    calls = _top_level_gcds(monkeypatch)
    t = ea._add_lowest(s, w)
    assert calls == [(MPoly.parse("1 + 2*z^1").terms, s.den.terms)]
    assert _stored(t) == _stored(_cross_multiplied((x, y, w)))


def test_add_lowest_reduces_against_the_common_factor(monkeypatch):
    common = Z - ONE
    x = (ONE / (common * (Z + ONE))).simplified()
    y = (ONE / (common * (Z + 4))).simplified()
    calls = _top_level_gcds(monkeypatch)
    s = ea._add_lowest(x, y)
    # the second gcd is of t = (z + 4) + (z + 1) against z - 1 alone
    assert len(calls) == 2 and calls[1][1] == common.num.terms
    assert _stored(s) == _stored(RatFunc.sum((x, y)))


def test_mul_lowest_one_gcd_of_the_factor(monkeypatch):
    x = ((Z + W) / ((Z - ONE) * (Z * Z + ONE))).simplified()
    p = MPoly.parse("-1*z^-1 + 1*z^1")  # (z - 1)(z + 1) / z
    calls = _top_level_gcds(monkeypatch)
    s = ea._mul_lowest(x, p)
    assert calls == [(MPoly.parse("-1 + 1*z^2").terms, x.den.terms)]
    assert _stored(s) == _stored((x * RatFunc(p)).simplified())


def test_mul_lowest_by_a_constant_makes_no_evaluation(monkeypatch):
    # a constant factor meets the denominator in an integer gcd of contents,
    # which cancels the 2 of 4 against 2(z - 1)
    x = ((Z + W) / (2 * Z - 2)).simplified()
    expected = [_stored((x * c).simplified()) for c in (3, 4, 1)]
    widths = _heugcd_widths(monkeypatch)
    got = [ea._mul_lowest(x, MPoly.const(c)) for c in (3, 4, 1)]
    assert widths == []
    assert all(s.stored for s in got) and list(map(_stored, got)) == expected
    assert expected[1] == (MPoly.parse("2*z^1 + 2*w^1"),
                           MPoly.parse("-1 + 1*z^1"))


# -- the stored mark -------------------------------------------------------------
# `simplified()` returns a value marked stored as it is, and `RatFunc.sum`
# takes a marked value alone over its denominator into Henrici's rule with
# no full gcd, so the mark must sit only on values in stored form.

def _is_own_reduction(x):
    """Whether x is in stored form: num and den equal those of the
    reduction of an unmarked copy (num and den compared separately)."""
    red = RatFunc(x.num, x.den).simplified()
    return red.num == x.num and red.den == x.den


def test_marked_values_are_their_own_reduction_randomized():
    rng = random.Random(53)
    for _ in range(150):
        terms = []
        for _ in range(rng.randint(0, 4)):
            terms.append(_random_addend(rng, terms))
        x, y = _random_lowest(rng, FACTORS), _random_lowest(rng, FACTORS)
        p = MPoly.monomial(tuple(rng.randint(-2, 1) for _ in range(5)),
                           rng.choice((-2, 1, 3)))
        for f in rng.sample(FACTORS, rng.randint(0, 2)):
            p = p * f
        values = [RatFunc.sum(terms), x + y, x - y, x + (-x).simplified(),
                  RatFunc.sum((x, y, *terms)), ea._mul_lowest(x, p),
                  _random_unreduced(rng).simplified()]
        values += [t.simplified() for t in terms]
        for v in values:
            assert v.stored and _is_own_reduction(v), v


def test_constructed_value_marked_only_over_one():
    common = MPoly.parse("-1 + 1*z^1")
    num, den = MPoly.parse("1 + 1*z^1"), MPoly.parse("2 + 1*w^1")
    u = RatFunc(num * common, den * common)
    assert not u.stored
    red = u.simplified()
    assert red.stored and (red.num, red.den) == (num, den)
    assert RatFunc(MPoly.parse("1*z^-1 + 2*w^1")).stored
    assert not RatFunc(MPoly.parse("1*z^-1 + 2*w^1"), 2).stored
    # a lone Fraction is n/d in lowest terms, so it is marked
    assert RatFunc(Fraction(1, 2)).stored
    half = RatFunc(1, 2)
    assert not half.stored
    assert _stored(half.simplified()) == (MPoly.const(1), MPoly.const(2))
    # products, quotients, negation and substitutions are not marked, so a
    # later sum or `simplified()` still reduces them
    for v in (red * ONE, red / ONE, -red, red.substitute({"t": T}),
              red.scale_exponents(1)):
        assert not v.stored
    s = RatFunc.sum([red * RatFunc(common, common)])
    assert s.stored and _stored(s) == (num, den)


def test_sum_of_one_marked_addend_is_itself():
    x = ((Z + W) / (Z * Z - ONE)).simplified()
    assert x.stored
    assert RatFunc.sum([x]) is x
    assert RatFunc.sum([ZERO, x, ZERO]) is x
    assert x + ZERO is x and ZERO + x is x
    one = (Z / 3).simplified()
    assert one.stored and _stored(one) == (MPoly.var("z"), MPoly.const(3))
    assert RatFunc.sum([one]) is one
    # a group that cancels is dropped, so x is the one value left
    y = (ONE / (Z - W)).simplified()
    assert RatFunc.sum([y, x, -y]) is x


def test_add_of_two_marked_values_is_the_grouped_sum_randomized():
    rng = random.Random(59)
    for _ in range(200):
        x = _random_lowest(rng, FACTORS)
        kind = rng.randrange(5)
        if kind == 0:  # an equal denominator, times any rational content
            r = _random_rational(rng)
            y = RatFunc(r.num, r.den * x.den).simplified()
        elif kind == 1:  # a zero sum
            y = (-x).simplified()
        elif kind == 2:  # a sum that cancels factors of the common one
            y = (_random_lowest(rng, FACTORS) - x).simplified()
        else:
            y = _random_lowest(rng, FACTORS)
        assert x.stored and y.stored
        # the two unmarked halves share a denominator, so they are added
        # and reduced as one group, which x joins when it shares that
        # denominator, before Henrici's rule adds the rest
        half = y * Fraction(1, 2)
        expected = _stored(_cross_multiplied((x, y)))
        for s in (x + y, y + x, RatFunc.sum((x, half, half))):
            assert s.stored and _stored(s) == expected, (x, y)


def test_sum_of_marked_values_matches_cross_multiplied_randomized():
    # marked addends over one denominator are added as one group, and the
    # groups by `_add_lowest`, so the rule both replaced is their oracle:
    # on denominators that share factors, and on sums whose last addend
    # cancels some of them
    rng = random.Random(61)
    for _ in range(150):
        terms = [_random_lowest(rng, FACTORS)
                 for _ in range(rng.randint(1, 3))]
        if rng.randrange(2):
            terms.append(_random_lowest(rng, FACTORS) - RatFunc.sum(terms))
        expected = _cross_multiplied(terms)
        for order in itertools.permutations(terms):
            got = RatFunc.sum(order)
            assert got.stored and _stored(got) == _stored(expected), order


def test_marked_addends_over_one_denominator_make_one_gcd(monkeypatch):
    # three marked addends over (z - 1)(z + w) are one group: their
    # numerators add to z + w, and the one gcd of the sum cancels it
    den = (Z - ONE) * (Z + W)
    terms = [(n / den).simplified() for n in (Z + 2, W - ONE, -ONE)]
    assert all(t.stored and t.den == terms[0].den for t in terms)
    calls = _top_level_gcds(monkeypatch)
    s = RatFunc.sum(terms)
    assert len(calls) == 1
    assert s.stored and _stored(s) == _stored(_cross_multiplied(terms))
    assert _stored(s) == (MPoly.const(1), MPoly.parse("-1 + 1*z^1"))
