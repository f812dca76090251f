"""Acceptance suite: the nine headline criteria, each with its stated
tolerance (exact equality) and runtime budget, printing one PASS line per
criterion (visible with pytest -s / in captured output)."""

import itertools
import math
import random
import time
from fractions import Fraction

from charstacks import partitions as pt
from charstacks import macdonald as md
from charstacks import ffcount as fc
from charstacks.exactalg import RatFunc, ONE, Q, T, U, Z, W
from charstacks.symfunc import (SymFunc, basis_element, hall_pair_h,
                                ple_exp, ple_log)
from charstacks.hlvkernel import hlv_HH, omega
from charstacks.charstack import (OrbitSpec, nonorientable, orientable,
                                  is_generic, eseries, mixed_series,
                                  counterexample_report)


def _report(num, name, elapsed, budget):
    verdict = "PASS" if elapsed <= budget else "FAIL (over budget)"
    print(f"ACCEPTANCE {num} [{name}]: {verdict} "
          f"({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed <= budget, f"criterion {num} exceeded {budget}s"


def test_criterion_1_counterexample():
    qt2 = Q * T * T
    carlsson = (qt2 + T) ** 2 / (qt2 - ONE)
    t0 = time.time()
    rep2 = counterexample_report(2, 2)
    t2 = time.time() - t0
    assert rep2.mixed.value == carlsson
    assert rep2.mixed.value != qt2 + T
    assert rep2.mixed.value.substitute({"t": RatFunc(-1)}) == Q - ONE
    assert t2 < 10, f"n=2 took {t2:.1f}s"
    t0 = time.time()
    rep3 = counterexample_report(3, 2)
    t3 = time.time() - t0
    assert rep3.confirmed
    _report(1, "counterexample", t3, 120)


def test_criterion_2_carlsson_identity():
    qt2 = Q * T * T
    t0 = time.time()
    from charstacks.exactalg import u_to_q
    for n in (2, 3):
        HH = hlv_HH(((n,),), 2)
        lhs = qt2 * HH.substitute({"z": T * U, "w": -(ONE / U)})
        lhs = lhs.substitute({"q": U * U})
        lhs_q, even = u_to_q(lhs)
        assert even
        assert lhs_q == (qt2 + T) ** 2, f"n={n}"
    _report(2, "carlsson-identity", time.time() - t0, 120)


def test_criterion_3_HH_closed_form():
    t0 = time.time()
    for m in range(5):
        assert hlv_HH(((1,),), m) == (Z - W) ** m
    for m in range(4):
        assert hlv_HH(((1,), (1,)), m) == (Z - W) ** m
    _report(3, "HH-closed-form", time.time() - t0, 1)


def test_criterion_4_eseries_vs_bruteforce():
    t0 = time.time()
    for r in (1, 2, 3):
        formula = eseries(nonorientable(r, 1), ((1,),)).value
        for q in (3, 5, 7):
            orb = fc.FqOrbit.central(1, 1, q)
            rep = fc.count_nonorientable(r, [orb])
            assert rep.groupoid_count == formula.eval({"q": q}), (r, q)
    formula = eseries(nonorientable(2, 1), ((2,),)).value
    for q in (3, 5, 7):
        orb = fc.FqOrbit.central(-1, 2, q)
        assert is_generic([orb.as_angles()])[0]
        rep = fc.count_nonorientable(2, [orb])
        assert rep.groupoid_count == formula.eval({"q": q}), q
    _report(4, "eseries-vs-bruteforce", time.time() - t0, 60)


def test_criterion_5_orientable_crosscheck():
    t0 = time.time()
    ori = eseries(orientable(1, 1), ((2,),)).value
    non = eseries(nonorientable(2, 1), ((2,),)).value
    assert ori == non == Q - ONE
    for q in (3, 5, 7):
        orb = fc.FqOrbit.central(-1, 2, q)
        rep = fc.count_orientable(1, [orb])
        assert rep.groupoid_count == ori.eval({"q": q}), q
    _report(5, "orientable-crosscheck", time.time() - t0, 120)


def test_criterion_6_macdonald_suite():
    t0 = time.time()
    swap = {"q": T, "t": Q}
    for n in range(1, 6):
        parts = pt.enumerate_partitions(n)
        for mu in parts:
            H = md.modified_H(mu)
            schur = md.schur_coefficients(mu)
            assert schur[(n,)] == ONE
            assert H.map_coefficients(lambda c: c.substitute(swap)) == \
                md.modified_H(pt.conjugate(mu))
            collapse = H.map_coefficients(
                lambda c: RatFunc(c.eval({"q": 1, "t": 1})))
            assert collapse == basis_element("p", ((1,) * n,), 1, n)
            for c in schur.values():
                c = c.simplified()
                assert c.den.is_one() or c.den.is_monomial()
                p = c.as_mpoly()
                assert all(x.denominator == 1 and x > 0
                           for x in p.terms.values())
                assert all(x >= 0 for e in p.terms for x in e)
        P = {mu: md.macdonald_P(mu) for mu in parts}
        for i, mu in enumerate(parts):
            for nu in parts[i + 1:]:
                assert md.qt_inner(P[mu], P[nu]) == RatFunc(0)
    _report(6, "macdonald-suite", time.time() - t0, 300)


def test_criterion_7_genericity():
    t0 = time.time()
    for n in range(2, 7):
        for d in (2, 4):
            ok, _ = is_generic([OrbitSpec.central(Fraction(d, 2 * n), n)])
            assert ok == (math.gcd(n, d // 2) == 1), (n, d)
        ok, _ = is_generic([OrbitSpec.central(0, n)])
        assert not ok, n
    pair = OrbitSpec.make([(Fraction(1, 3), 1), (Fraction(2, 3), 1)])
    assert not is_generic([pair, pair])[0]
    _report(7, "genericity", time.time() - t0, 1)


def test_criterion_8_mixed_E_consistency():
    t0 = time.time()
    matrix = [(nonorientable(r, 1), ((n,),)) for r in (1, 2, 3)
              for n in (1, 2)]
    matrix += [(orientable(1, 1), ((n,),)) for n in (1, 2, 3)]
    matrix += [(nonorientable(2, 1), ((1, 1),)),
               (nonorientable(3, 1), ((2,),))]
    tminus = {"t": RatFunc(-1)}
    for surface, mus in matrix:
        mix = mixed_series(surface, mus).value
        ese = eseries(surface, mus).value
        assert mix.substitute(tminus) == ese, (surface, mus)
    _report(8, "mixed-E-consistency", time.time() - t0, 300)


def test_criterion_9_plethystic_core():
    t0 = time.time()
    # Exp/Log mutual inversion on randomized inputs
    rng = random.Random(42)
    for _ in range(3):
        f = SymFunc.zero(1, 3)
        for n in range(1, 4):
            for lam in pt.enumerate_partitions(n):
                if rng.random() < 0.5:
                    c = RatFunc(Fraction(rng.randint(-2, 2)))
                    f = f + basis_element("m", (lam,), 1, 3).scale(c * Q)
        assert ple_log(ple_exp(f)) == f
    # pairing duality
    for n in range(1, 5):
        for lam in pt.enumerate_partitions(n):
            fm = basis_element("m", (lam,), 1, n)
            for mu in pt.enumerate_partitions(n):
                want = ONE if mu == lam else RatFunc(0)
                assert hall_pair_h(fm, (mu,)) == want
    # basis round-trips
    for n in range(1, 5):
        for lam in pt.enumerate_partitions(n):
            fm = basis_element("m", (lam,), 1, n)
            for b in ("p", "s", "h", "e"):
                assert SymFunc.from_basis(b, fm.to_basis(b), 1, n) == fm
    # truncation stability of the pairing that HH truncates at N = |mu|
    for m in (1, 2):
        logs = {N: ple_log(omega(m, 1, N)) for N in (1, 2, 3)}
        for n in (1, 2):
            assert hall_pair_h(logs[n], ((n,),)) == \
                hall_pair_h(logs[n + 1], ((n,),))
    _report(9, "plethystic-core", time.time() - t0, 60)
