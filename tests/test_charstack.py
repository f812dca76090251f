import json
from fractions import Fraction

import pytest

from charstacks import charstack, cli
from charstacks.exactalg import RatFunc, ONE, Q, T
from charstacks.charstack import (OrbitSpec, nonorientable, orientable,
                                  is_generic, d_mu, eseries, mixed_series,
                                  counterexample_report)


def test_generic_central_orbit():
    ok, witness = is_generic([OrbitSpec.central(Fraction(2, 10), 5)])
    assert ok and witness is None


def test_identity_orbit_not_generic():
    ok, witness = is_generic([OrbitSpec.central(0, 2)])
    assert not ok and witness["v"] == 1


def test_inverse_pair_not_generic():
    o = OrbitSpec.make([(Fraction(1, 3), 1), (Fraction(2, 3), 1)])
    ok, witness = is_generic([o, o])
    assert not ok and witness["v"] == 1


def test_angle_sum_must_be_integral():
    # a single eigenvalue e^(2 pi i/3): the determinant is not 1, so the
    # variety is empty and the orbit is not generic
    ok, witness = is_generic([OrbitSpec.central(Fraction(1, 3), 1)])
    assert not ok and witness["v"] == 1 and witness["sum"] == Fraction(1, 3)
    ok, witness = is_generic([OrbitSpec.central(Fraction(1, 6), 2)])
    assert not ok and witness["v"] == 2
    assert is_generic([OrbitSpec.central(Fraction(1, 3), 1),
                       OrbitSpec.central(Fraction(2, 3), 1)])[0]


def test_generic_central_family():
    # angle d/(2n) with d even and gcd(n, d/2) = 1
    for n in range(2, 7):
        for d in (2, 4):
            if Fraction(d, 2).numerator % n == 0 or \
                    __import__("math").gcd(n, d // 2) != 1:
                continue
            ok, _ = is_generic([OrbitSpec.central(Fraction(d, 2 * n), n)])
            assert ok, (n, d)


def test_generic_permutation_invariant():
    o1 = OrbitSpec.make([(Fraction(1, 3), 1), (Fraction(1, 4), 1)])
    o2 = OrbitSpec.make([(Fraction(1, 4), 1), (Fraction(1, 3), 1)])
    o3 = OrbitSpec.central(Fraction(1, 2), 2)
    assert is_generic([o1, o3])[0] == is_generic([o2, o3])[0]
    assert is_generic([o1, o3])[0] == is_generic([o3, o1])[0]


def test_mismatched_n_rejected():
    with pytest.raises(ValueError):
        is_generic([OrbitSpec.central(0, 2), OrbitSpec.central(0, 3)])


def test_orbit_type_and_repeated_angles():
    assert OrbitSpec.make([(Fraction(1, 3), 1), (Fraction(1, 4), 2)]).type \
        == (2, 1)
    assert OrbitSpec.central(Fraction(1, 2), 3).type == (3,)
    # 0 and 1 are one angle: this would be I_2 with type (1,1)
    with pytest.raises(ValueError, match="distinct mod 1"):
        OrbitSpec.make([(0, 1), (1, 1)])


def test_non_integer_multiplicity_refused():
    # a multiplicity is read as an integer, never truncated: 1.9 is not 1
    for m in (1.9, 2.0, "1"):
        with pytest.raises(TypeError):
            OrbitSpec.make([(Fraction(1, 2), m)])
    # nor is a float angle taken as its binary fraction: 0.1 is not 1/10
    for a in (0.1, 0.5, "1/2"):
        with pytest.raises(TypeError, match="an angle is an int or a Fraction"):
            OrbitSpec.make([(a, 1), (0, 1)])
    assert OrbitSpec.make([(Fraction(1, 2), 2)]).eigenvalues == \
        ((Fraction(1, 2), 2),)
    assert OrbitSpec.make([(3, 1), (Fraction(-1, 2), 1)]).eigenvalues == \
        ((0, 1), (Fraction(1, 2), 1))


def test_series_refusals_come_before_HH(monkeypatch):
    def no_HH(mus, m):
        raise AssertionError("HH computed for a refused input")

    monkeypatch.setattr(charstack, "hlv_HH", no_HH)
    with pytest.raises(ValueError, match="k mismatch"):
        eseries(nonorientable(2, 2), ((2,),))
    with pytest.raises(ValueError, match="at least one orbit"):
        mixed_series(nonorientable(2, 1), ((2,),), orbits=[])
    # generic tuples whose types are not mu: one orbit of type (1,1) for
    # mu = (2), and two orbits on a k = 1 surface
    split = OrbitSpec.make([(Fraction(1, 8), 1), (Fraction(7, 8), 1)])
    quarter = OrbitSpec.central(Fraction(1, 4), 2)
    assert is_generic([split])[0] and is_generic([quarter, quarter])[0]
    for fn in (eseries, mixed_series):
        for orbits in ([split], [quarter, quarter]):
            with pytest.raises(ValueError, match=r"not mu = \(\(2,\),\)"):
                fn(nonorientable(2, 1), ((2,),), orbits)


def test_d_mu():
    assert d_mu(nonorientable(2, 1), ((2,),)) == 2
    assert d_mu(nonorientable(1, 1), ((1,),)) == 1
    for n in (1, 2, 3):
        assert d_mu(orientable(1, 1), ((n,),)) == 2


def test_eseries_single_box():
    for r in (1, 2, 3):
        rep = eseries(nonorientable(r, 1), ((1,),))
        assert rep.value == (Q - ONE) ** (r - 1)
        assert not rep.half_integer_powers


def test_eseries_counterexample_orbit():
    rep = eseries(nonorientable(2, 1), ((2,),))
    assert rep.value == Q - ONE


def test_eseries_orientable():
    rep = eseries(orientable(1, 1), ((2,),))
    assert rep.value == Q - ONE


def test_nonorientable_even_r_matches_orientable():
    # r = 2h cross-caps and genus h produce the same kernel exponent m
    for mus in (((1,),), ((2,),), ((1, 1),)):
        assert eseries(nonorientable(2, 1), mus).value == \
            eseries(orientable(1, 1), mus).value
        assert mixed_series(nonorientable(2, 1), mus).value == \
            mixed_series(orientable(1, 1), mus).value


def test_mixed_r1():
    rep = mixed_series(nonorientable(1, 1), ((1,),))
    qt2 = Q * T * T
    assert rep.value == (qt2 + T) / (qt2 - ONE)


def test_mixed_counterexample_value():
    rep = mixed_series(nonorientable(2, 1), ((2,),))
    qt2 = Q * T * T
    assert rep.value == (qt2 + T) ** 2 / (qt2 - ONE)


def test_mixed_specializes_to_eseries():
    cases = [(nonorientable(r, 1), ((n,),))
             for r in (1, 2, 3) for n in (1, 2)]
    cases += [(orientable(1, 1), ((n,),)) for n in (1, 2, 3)]
    cases += [(nonorientable(2, 1), ((1, 1),))]
    for surface, mus in cases:
        mix = mixed_series(surface, mus)
        ese = eseries(surface, mus)
        assert mix.value.substitute({"t": RatFunc(-1)}) == ese.value, \
            (surface, mus)


def test_half_integer_powers_reported():
    rep = eseries(nonorientable(1, 1), ((1,),))
    assert rep.d_mu == 1
    # d odd but the series itself is the constant 1: no residual sqrt(q)
    assert rep.value == ONE
    assert not rep.half_integer_powers


# the values 1/2 q + q^2, 1 + 1/2 q, -1/2 q + q^2 and 1 - 1/2 q: rational
# content is a constant denominator, and a negative coefficient shows as a
# minus sign, in front or between terms
@pytest.mark.parametrize("text, latex", [
    ("0", "0"),
    ("(1*q^1 + 2*q^2) / (2)", "\\frac{q + 2q^{2}}{2}"),
    ("(2 + 1*q^1) / (2)", "\\frac{2 + q}{2}"),
    ("(-1*q^1 + 2*q^2) / (2)", "\\frac{-q + 2q^{2}}{2}"),
    ("(2 + -1*q^1) / (2)", "\\frac{2 - q}{2}"),
])
def test_latex_sign_outside_fraction(text, latex):
    assert cli._latex(RatFunc.parse(text).simplified()) == latex


def test_report_json_schema():
    rep = eseries(nonorientable(2, 1), ((2,),),
                  orbits=[OrbitSpec.central(Fraction(1, 2), 2)])
    data = json.loads(json.dumps(rep.as_dict()))
    assert data["formula"] == "eseries-nonorientable"
    assert data["surface"]["kind"] == "nonorientable"
    assert data["generic"] is True
    assert data["mu"] == [[2]]
    assert "value" in data and "checks" in data


def test_counterexample_n2():
    rep = counterexample_report(2, 2)
    assert rep.matches_carlsson
    assert rep.differs_from_gerbe_series
    assert rep.espec_matches
    assert rep.confirmed and rep.generic


def test_counterexample_preconditions():
    # a non-generic orbit is refused with is_generic's witness: for d odd
    # the whole orbit sums to 1/2, and for d = 4 the orbit is the identity,
    # one of whose eigenvalues has angle sum 0
    with pytest.raises(ValueError, match="not generic.*v = 2,"):
        counterexample_report(2, 1)
    with pytest.raises(ValueError, match="not generic.*v = 1,"):
        counterexample_report(2, 4)
    with pytest.raises(ValueError):
        counterexample_report(1, 2)  # n too small


def test_counterexample_computes_HH_once(monkeypatch):
    calls = []
    real = charstack.hlv_HH

    def counting(mus, m):
        calls.append((mus, m))
        return real(mus, m)

    monkeypatch.setattr(charstack, "hlv_HH", counting)
    assert counterexample_report(3, 2).confirmed
    assert calls == [(((3,),), 2)]



@pytest.mark.parametrize("call, message", [
    (lambda: OrbitSpec.make([(Fraction(1, 2), 0)]),
     "multiplicities must be >= 1"),
    (lambda: orientable(-1, 1), "orientable surface needs g >= 0 only"),
    (lambda: charstack.SurfaceSpec(kind="klein", k=1),
     "unknown surface kind 'klein'"),
], ids=["multiplicity-0", "genus-negative", "unknown-kind"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
