import hashlib
import itertools

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


def _dominated(lam, mu):
    """lam <= mu in dominance order, for partitions of one size."""
    pad = (0,) * sum(mu)
    return all(a <= b for a, b in zip(itertools.accumulate(lam + pad),
                                      itertools.accumulate(mu + pad)))


def test_P_triangular():
    # monic and dominance-triangular in the m basis
    assert _dominated((1, 1, 1), (2, 1)) and _dominated((2, 1), (3,))
    assert not _dominated((3,), (2, 1))
    for mu in _all_partitions_to(5):
        P = md.macdonald_P(mu)
        assert P.coefficient((mu,)) == ONE
        for (lam,) in P.to_basis("m"):
            assert _dominated(lam, mu), (mu, lam)


def test_stored_coefficients_are_integral():
    # integral symmetric functions have integral coefficients in the
    # stored basis p_lam / z_lam, so H~_mu and its specialisation run on ints
    for mu in _all_partitions_to(6):
        for f in (md.modified_H(mu), md.specialized_H(mu)):
            for c in f.coeffs.values():
                assert c.den.is_one(), mu
                assert all(type(x) is int for x in c.num.terms.values()), mu


def test_qt_inner_on_power_sums():
    # <p_lam, p_mu>_{q,t} = delta z_lam prod_i (1-q^lam_i)/(1-t^lam_i)
    for n in range(1, 5):
        parts = pt.enumerate_partitions(n)
        for lam in parts:
            norm = RatFunc(pt.zlambda(lam))
            for part in lam:
                norm = norm * (ONE - Q ** part) / (ONE - T ** part)
            p_lam = basis_element("p", (lam,), 1, n)
            for mu in parts:
                p_mu = basis_element("p", (mu,), 1, n)
                want = norm if mu == lam else RatFunc(0)
                assert md.qt_inner(p_lam, p_mu) == want, (lam, mu)


def test_empty_partition_is_one():
    assert md.modified_H(()) == SymFunc.one(1, 1)


# -- golden texts -------------------------------------------------------------
# sha256 of the texts of modified_H(mu), schur_coefficients(mu) (sorted by
# partition, each coefficient simplified) and macdonald_P(mu), joined by a
# blank line, as the p-basis implementation printed them.  A change of the
# stored basis must leave every one byte-identical.

GOLDEN_TEXTS = {
    (1,): "68f49c44f908e6f5a47d2828d7ea44f905e98f60bf418b906312d7ac995ca979",
    (2,): "9bd1253e6e08f7b4bf824c36de889f4d3b66e9f1de2218154e3b372a944065ef",
    (1, 1): "48ea52a17571acff1519693dae9c6cc8a8d78eecfe59c8544bfbdaba192da2ef",
    (3,): "774cd1253c0420f7de4585144107f160aef3cb1b936114fd11b59ac54cd8372f",
    (2, 1): "50acc2a649f39eb585948bd09e51c36c41f07697f67587c0e642bcf4582135a1",
    (1, 1, 1):
        "8d5d512e3dd16cf6aed7ca58480f358134c8504043e103991f267208b72902c2",
    (4,): "1a6a0f302ebfc4de92fcbfe3b27f331754205d53637b063a3964e6cdfcec9dc5",
    (3, 1): "a237c44cb63b18942899a2fe8da3595b408d944f48bada030145deaa525a41e0",
    (2, 2): "82ae2e6ffaec3970f19a5493861da6c5077f926e1cc9f3aadc93bb82e49faa48",
    (2, 1, 1):
        "33266a34f080a06dd4d30d0b3eeb2f01ec0fc1ec643acc0bf7b2970a861a94fc",
    (1, 1, 1, 1):
        "d193fc1536a0d411dbae42dbbb4ff9ab486c6b757781f83fae38e0427cc478f0",
    (5,): "0dc8dec108548cf5cf0aebdca583879e9d7c21cb4114d31ccc7db52a0a75f00a",
    (4, 1): "518c358e37856bfa6f68349b58952b9aaf494e878297ac81228ba96a89e7f536",
    (3, 2): "e1456039fa65f386ba21f02ce80abf480b0d49a22e888009f8bc447f640e6741",
    (3, 1, 1):
        "4dec2d9e9a396096ec852c49106b4259ee37e7c484aa83c58480fe564940c107",
    (2, 2, 1):
        "6fd5afc565cf9610ec1f52a37d5872bb6e8c56701d8b5a0f882402ee1a44d8e1",
    (2, 1, 1, 1):
        "9081569390ac1129753b6c6a3a88bd8c8643d3f3a36317833e417701ca6ad18d",
    (1, 1, 1, 1, 1):
        "f6494f8ce74ba3b4f0fb31be3a2f12b65b508be43b85ec78260154f32da7255d",
}


def test_golden_texts():
    # about 0.3 s for all |mu| <= 5
    for mu in _all_partitions_to(5):
        schur = sorted(md.schur_coefficients(mu).items())
        schur = "\n".join(f"{pt.partition_text(lam)} : {c.simplified().text()}"
                          for lam, c in schur)
        text = "\n\n".join((md.modified_H(mu).text(), schur,
                             md.macdonald_P(mu).text()))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == GOLDEN_TEXTS[mu], mu
