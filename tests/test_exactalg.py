import random
from fractions import Fraction

import pytest

from charstacks.exactalg import (MPoly, RatFunc, u_to_q, ONE, ZERO, Z, W, Q,
                                T, U)


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


def _stored_form(p):
    """Every coefficient is an int, or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.terms.values())


def test_integral_coefficients_stored_as_int():
    z = MPoly.var("z")
    assert MPoly.const(Fraction(4, 2)).terms == {(0, 0, 0, 0, 0): 2}
    assert MPoly.parse("2/2*z^1") == z
    f = RatFunc(MPoly.parse("2*z^1 + 4*w^2"), MPoly.parse("2*q^1"))
    red = f.simplified()
    assert red == f and red.den.is_one()
    cases = [MPoly.const(Fraction(4, 2)), MPoly.parse("2/2*z^1"),
             (z * 2).exact_div(MPoly.const(2)),
             MPoly.from_ring(((Z - W) ** 2).num.to_ring()),
             red.num, red.den]
    for p in cases:
        assert p.terms and all(type(c) is int for c in p.terms.values()), p


def test_exact_div_by_int_gives_fraction():
    half = MPoly.var("z").exact_div(MPoly.const(2))
    assert half.terms == {(1, 0, 0, 0, 0): Fraction(1, 2)}
    assert type(half.terms[(1, 0, 0, 0, 0)]) is Fraction
    # long division: (z^2 - 1) / (2z - 2) = (z + 1) / 2
    q = (Z * Z - ONE).num.exact_div((2 * Z - 2).num)
    assert q == MPoly.parse("1/2 + 1/2*z^1") and _stored_form(q)
    assert (2 * MPoly.var("z")) ** -2 == MPoly.parse("1/4*z^-2")


def test_float_coefficient_rejected():
    with pytest.raises(TypeError):
        MPoly.const(0.5)
    with pytest.raises(TypeError):
        MPoly.monomial((1, 0, 0, 0, 0), 2.0)


def _random_rational_mpoly(rng):
    p = MPoly()
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 2) for _ in range(5))
        p = p + MPoly.monomial(e, Fraction(rng.randint(-4, 4),
                                           rng.choice((1, 1, 2, 3))))
    return p if not p.is_zero() else MPoly.const(2)


def test_no_float_coefficients_randomized():
    rng = random.Random(19)
    for _ in range(25):
        a, b = _random_rational_mpoly(rng), _random_rational_mpoly(rng)
        prod = a * b
        results = [a + b, a - b, prod, a * 3, a ** 2, a ** 3]
        image = RatFunc(a, b).substitute({"t": -(ONE / U), "z": T * U})
        normalised = [prod.exact_div(b), (a * 2).exact_div(MPoly.const(4)),
                      RatFunc(a, b).simplified().num,
                      RatFunc(a, b).simplified().den,
                      RatFunc(prod, b).simplified().num, image.num, image.den]
        assert prod.exact_div(b) == a
        for p in results + normalised:
            assert all(type(c) in (int, Fraction) for c in p.terms.values())
        for p in normalised:
            assert _stored_form(p), p


def test_sum_stored_in_lowest_terms():
    f = ONE / (Z * Z - ONE) + ONE / (Z - ONE)
    assert f.num == MPoly.parse("2 + 1*z^1")
    assert f.den == MPoly.parse("-1 + 1*z^2")


def _random_unreduced(rng):
    """A RatFunc with a non-monomial denominator and a common factor left
    in its numerator and denominator."""
    common = MPoly.const(rng.randint(2, 3)) + MPoly.monomial(
        tuple(rng.randint(0, 1) for _ in range(5)), rng.choice((-1, 1, 2)))
    den = MPoly.monomial((0, 0, rng.randint(1, 2), 0, 0), rng.randint(1, 3)) \
        + MPoly.const(rng.choice((-2, -1, 1)))
    return RatFunc(_random_rational_mpoly(rng) * common, den * common)


def test_sum_reduced_randomized():
    rng = random.Random(23)
    for _ in range(25):
        a, b = _random_unreduced(rng), _random_unreduced(rng)
        assert a.den != b.den
        for got, expected in ((a + b, (a + b).simplified()),
                              (ZERO + a, a.simplified())):
            assert (got.num, got.den) == (expected.num, expected.den)
