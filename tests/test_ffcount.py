import random
from fractions import Fraction

import pytest

from charstacks import ffcount as fc


def test_gl_order():
    assert fc.gl_order(1, 3) == 2
    assert fc.gl_order(2, 3) == 48
    assert fc.gl_order(2, 5) == 480


def test_enumerate_gl_counts():
    assert sum(1 for _ in fc.enumerate_gl(1, 5)) == 4
    assert sum(1 for _ in fc.enumerate_gl(2, 3)) == 48


def test_enumerate_gl_guard():
    with pytest.raises(fc.EnumerationTooLarge):
        list(fc.enumerate_gl(3, 5))
    with pytest.raises(ValueError):
        list(fc.enumerate_gl(2, 4))  # not prime


def test_theta():
    q = 5
    assert fc.theta(fc.identity(2), q) == fc.identity(2)
    rng = random.Random(3)
    mats = list(fc.enumerate_gl(2, q))
    for a in rng.sample(mats, 10):
        assert fc.theta(fc.theta(a, q), q) == a
    for a in fc.enumerate_gl(1, q):
        assert fc.mat_mul(a, fc.theta(a, q), q) == fc.identity(1)


def test_nonorientable_n1_closed_form():
    for q in (3, 5, 7, 11, 13):
        for r in (1, 2, 3, 4):
            orb = fc.FqOrbit.central(1, 1, q)
            rep = fc.count_nonorientable(r, [orb], q, 1)
            assert rep.raw_count == (q - 1) ** r
            assert rep.groupoid_count == Fraction((q - 1) ** (r - 1))
            assert rep.groupoid_count * rep.gl_order == rep.raw_count


def test_orientable_n1_closed_form():
    for q in (3, 5, 7, 11, 13):
        for g in (1, 2):
            orb = fc.FqOrbit.central(1, 1, q)
            rep = fc.count_orientable(g, [orb], q, 1)
            assert rep.groupoid_count == Fraction((q - 1) ** (2 * g - 1))


def test_nonorientable_flagship():
    orb = fc.FqOrbit.central(-1, 2, 3)
    rep = fc.count_nonorientable(2, [orb], 3, 2,
                                 formula_value=Fraction(2))
    assert rep.groupoid_count == 2 and rep.match


def test_nonorientable_nongeneric_orbit():
    # zeta = +1 is non-generic; the formula value q-1 does not apply
    orb = fc.FqOrbit.central(1, 2, 3)
    assert not orb.is_generic_with([], 3)
    rep = fc.count_nonorientable(2, [orb], 3, 2)
    assert rep.groupoid_count != 2


def test_orientable_flagship():
    orb = fc.FqOrbit.central(-1, 2, 3)
    rep = fc.count_orientable(1, [orb], 3, 2, formula_value=Fraction(2))
    assert rep.groupoid_count == 2 and rep.match


def test_conjugation_invariance():
    # counting against a conjugated split orbit gives the same raw count
    q = 3
    orb = fc.FqOrbit.split([(1, 1), (2, 1)], q)
    rep1 = fc.count_nonorientable(1, [orb], q, 2)
    members = orb.members(q)
    g = next(iter(fc.enumerate_gl(2, q)))
    conj = {fc.mat_mul(fc.mat_mul(g, m, q), fc.mat_inv(g, q), q)
            for m in members}
    assert conj == members
    assert rep1.groupoid_count * rep1.gl_order == rep1.raw_count


def test_genericity_finite_field():
    assert fc.FqOrbit.central(-1, 2, 5).is_generic_with([], 5)
    assert not fc.FqOrbit.central(1, 2, 5).is_generic_with([], 5)
    # inverse pair (2, 3) over F_5: 2 * 3 = 1, so the k=2 tuple is degenerate
    o = fc.FqOrbit.split([(2, 1), (3, 1)], 5)
    assert not o.is_generic_with([o], 5)


def test_genericity_finite_field_determinant():
    # over F_7, 2 has order 3: 2*I_1 has determinant 2 != 1, and 2*I_3 is
    # generic (2^3 = 1, and 2, 4 != 1)
    assert not fc.FqOrbit.central(2, 1, 7).is_generic_with([], 7)
    assert fc.FqOrbit.central(2, 3, 7).is_generic_with([], 7)
    assert not fc.FqOrbit.central(-1, 3, 7).is_generic_with([], 7)


def test_cost_cap():
    orb = fc.FqOrbit.central(-1, 3, 13)
    with pytest.raises(fc.EnumerationTooLarge):
        fc.count_nonorientable(2, [orb], 13, 3)


def test_report_json():
    import json
    orb = fc.FqOrbit.central(-1, 2, 3)
    rep = fc.count_nonorientable(2, [orb], 3, 2, formula_value=Fraction(2))
    data = json.loads(rep.to_json())
    assert data["raw_count"] == rep.raw_count
    assert data["groupoid_count"] == "2"
    assert data["match"] is True
