import pytest

from charstacks import hlvkernel
from charstacks import partitions as pt
from charstacks.exactalg import RatFunc, ONE, Z, W
from charstacks.hlvkernel import KernelConfig, hook_H, omega, hlv_HH
from charstacks.macdonald import specialized_H
from charstacks.symfunc import basis_element


def test_hook_single_cell():
    den = (Z * Z - ONE) * (ONE - W * W)
    for m in range(5):
        assert hook_H(m, (1,)) == (Z - W) ** m / den
    assert hook_H(0, (1,)) == ONE / den


def test_hook_row_two():
    # cells of (2): (a,l) = (1,0) and (0,0)
    num = ((Z - W) * (Z ** 3 - W)) ** 2
    den = (Z * Z - ONE) * (ONE - W * W) * (Z ** 4 - ONE) * (Z * Z - W * W)
    assert hook_H(2, (2,)) == num / den


def test_omega_degree_one():
    for m in (0, 1, 2, 3):
        om = omega(KernelConfig(m=m, k=1, N=1))
        assert om.constant_term() == ONE
        assert om.coefficient(((1,),)) == hook_H(m, (1,))
    om2 = omega(KernelConfig(m=2, k=2, N=1))
    assert om2.coefficient(((1,), (1,))) == hook_H(2, (1,))


def test_omega_degree_two():
    om = omega(KernelConfig(m=2, k=1, N=2))
    expected = (specialized_H((2,)).scale(hook_H(2, (2,)))
                + specialized_H((1, 1)).scale(hook_H(2, (1, 1))))
    for lam in pt.enumerate_partitions(2):
        assert om.coefficient((lam,)) == expected.coefficient((lam,))


def test_HH_single_box():
    for m in range(5):
        assert hlv_HH(((1,),), m) == (Z - W) ** m


def test_HH_single_box_two_alphabets():
    for m in range(4):
        assert hlv_HH(((1,), (1,)), m) == (Z - W) ** m


def test_HH_polynomiality_even_m():
    for mus in (((1,),), ((2,),), ((1, 1),), ((1,), (1,))):
        for m in (0, 2):
            f = hlv_HH(mus, m).simplified()
            assert f.den.is_one() or f.den.is_monomial(), (mus, m)
            p = f.as_mpoly()
            assert all(c.denominator == 1 for c in p.terms.values())
            assert all(all(x >= 0 for x in e) for e in p.terms)


def test_HH_odd_m_not_always_polynomial():
    # polynomiality genuinely fails for odd m: HH_{(2),1} = 1/(1+z^2)
    f = hlv_HH(((2,),), 1).simplified()
    assert f == ONE / (ONE + Z * Z)
    # while the conjugate shape stays polynomial
    assert hlv_HH(((1, 1),), 1) == ONE


def test_log_omega_shared_across_mu(monkeypatch):
    calls = []
    real = hlvkernel.ple_log

    def counting(om):
        calls.append(om)
        return real(om)

    monkeypatch.setattr(hlvkernel, "ple_log", counting)
    hlvkernel._log_omega.cache_clear()
    hlv_HH(((2,),), 3)
    hlv_HH(((1, 1),), 3)
    assert len(calls) == 1


def test_truncation_stability():
    for n in range(1, 4):
        for m in range(4):
            for lam in ((n,), (1,) * n):
                mus = (lam,)
                assert hlv_HH(mus, m, N=n) == hlv_HH(mus, m, N=n + 1)
    assert hlv_HH(((2,), (2,)), 2, N=2) == hlv_HH(((2,), (2,)), 2, N=3)
    assert hlv_HH(((1,), (1,)), 3, N=1) == hlv_HH(((1,), (1,)), 3, N=2)


def test_sign_flip_symmetry():
    # empirically HH(-z,-w) = (-1)^(m n) HH(z,w) on every computed instance;
    # the sign cancels against the (t u)^d prefactor, which is what makes
    # the t=-1 specialization of the mixed series match the E-series
    flip = {"z": -Z, "w": -W}
    for mus, n in ((((1,),), 1), (((2,),), 2), (((1, 1),), 2),
                   (((2,), (2,)), 2), (((3,),), 3)):
        for m in (1, 2, 3):
            f = hlv_HH(mus, m)
            expected = f if (m * n) % 2 == 0 else -f
            assert f.substitute(flip) == expected


def test_config_validation():
    with pytest.raises(ValueError):
        KernelConfig(m=-1, k=1, N=1)
    with pytest.raises(ValueError):
        KernelConfig(m=2, k=0, N=1)
