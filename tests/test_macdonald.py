import pytest

from charstacks import partitions as pt
from charstacks import macdonald as md
from charstacks.exactalg import RatFunc, ONE, Q, T, Z, W
from charstacks.symfunc import SymFunc, basis_element


def test_P_trivial_cases():
    assert md.macdonald_P((1,)) == basis_element("m", ((1,),), 1, 1)
    P11 = md.macdonald_P((1, 1))
    assert P11.coefficient(((1, 1),)) == ONE
    assert P11.coefficient(((2,),)) == RatFunc(0)


def test_P2_coefficient():
    # the m_(1,1) coefficient solves the single orthogonality equation
    # <P_(2), P_(1,1)> = 0 over the p-basis Gram matrix at n=2
    P2 = md.macdonald_P((2,))
    c = (ONE + Q) * (ONE - T) / (ONE - Q * T)
    assert P2.coefficient(((2,),)) == ONE
    assert P2.coefficient(((1, 1),)) == c


def test_modified_H_small():
    s2 = basis_element("s", ((2,),), 1, 2)
    s11 = basis_element("s", ((1, 1),), 1, 2)
    assert md.modified_H((1,)) == basis_element("s", ((1,),), 1, 1)
    assert md.modified_H((2,)) == s2 + s11.scale(Q)
    assert md.modified_H((1, 1)) == s2 + s11.scale(T)
    s3 = basis_element("s", ((3,),), 1, 3)
    s21 = basis_element("s", ((2, 1),), 1, 3)
    s111 = basis_element("s", ((1, 1, 1),), 1, 3)
    assert md.modified_H((2, 1)) == s3 + s21.scale(Q + T) + s111.scale(Q * T)


def test_modified_H_text_is_m_basis():
    assert md.modified_H((2, 1)).text() == (
        "(1,1,1) : 1 + 2*t^1 + 2*q^1 + 1*q^1*t^1\n"
        "(2,1) : 1 + 1*t^1 + 1*q^1\n"
        "(3) : 1")


def test_specialized_H():
    s2 = basis_element("s", ((2,),), 1, 2)
    s11 = basis_element("s", ((1, 1),), 1, 2)
    assert md.specialized_H((1,)) == basis_element("m", ((1,),), 1, 1)
    assert md.specialized_H((2,)) == s2 + s11.scale(Z * Z)
    assert md.specialized_H((1, 1)) == s2 + s11.scale(W * W)


def _all_partitions_to(n):
    for size in range(1, n + 1):
        yield from pt.enumerate_partitions(size)


def test_top_schur_coefficient_is_one():
    for mu in _all_partitions_to(5):
        assert md.schur_coefficients(mu)[(sum(mu),)] == ONE


def test_qt_conjugation_symmetry():
    swap = {"q": T, "t": Q}
    for mu in _all_partitions_to(5):
        swapped = md.modified_H(mu).map_coefficients(
            lambda c: c.substitute(swap))
        assert swapped == md.modified_H(pt.conjugate(mu))


def test_q_t_one_collapse():
    for mu in _all_partitions_to(5):
        n = sum(mu)
        spec = md.modified_H(mu).map_coefficients(
            lambda c: RatFunc(c.eval({"q": 1, "t": 1})))
        p1n = basis_element("p", ((1,) * n,), 1, n)
        assert spec == p1n


def test_schur_positivity():
    for mu in _all_partitions_to(5):
        for lam, c in md.schur_coefficients(mu).items():
            poly = c.simplified()
            assert poly.den.is_monomial() or poly.den.is_one()
            p = poly.as_mpoly()
            for e, coef in p.terms.items():
                assert coef.denominator == 1 and coef > 0
                assert all(x >= 0 for x in e)


def test_P_triangular():
    # monic and dominance-triangular in the m basis
    for mu in _all_partitions_to(5):
        P = md.macdonald_P(mu)
        assert P.coefficient((mu,)) == ONE
        for (lam,) in P.to_basis("m"):
            assert pt.dominance_leq(lam, mu), (mu, lam)


def test_P_orthogonality():
    for n in range(1, 6):
        parts = pt.enumerate_partitions(n)
        P = {mu: md.macdonald_P(mu) for mu in parts}
        for i, mu in enumerate(parts):
            for nu in parts[i + 1:]:
                ip = md.qt_inner(P[mu], P[nu])
                assert ip == RatFunc(0)


def test_empty_partition_is_one():
    assert md.modified_H(()) == SymFunc.one(1, 1)
