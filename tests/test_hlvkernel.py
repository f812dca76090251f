import pytest

from charstacks import partitions as pt
from charstacks.exactalg import RatFunc, ONE, Z, W
from charstacks.hlvkernel import hook_H, omega, hlv_HH
from charstacks.macdonald import specialized_H
from charstacks.symfunc import hall_pair_h, ple_log


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
        om = omega(m, 1, 1)
        assert om.constant_term() == ONE
        assert om.coefficient(((1,),)) == hook_H(m, (1,))
    om2 = omega(2, 2, 1)
    assert om2.coefficient(((1,), (1,))) == hook_H(2, (1,))


def test_omega_degree_two():
    om = omega(2, 1, 2)
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


def test_HH_one_row_m2():
    # HH_{(n),2} = (z - w)^2, the identity behind the counterexample's
    # verdicts; at n = 1 it is test_HH_single_box
    for n in (2, 3, 4):
        assert hlv_HH(((n,),), 2) == (Z - W) ** 2, n


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


def test_truncation_stability():
    # hlv_HH truncates at N = |mu|; the pairing must not see degree N + 1
    for m in range(4):
        logs = {N: ple_log(omega(m, 1, N)) for N in range(1, 5)}
        for n in range(1, 4):
            for lam in ((n,), (1,) * n):
                assert hall_pair_h(logs[n], (lam,)) == \
                    hall_pair_h(logs[n + 1], (lam,))
    for mus, m, N in ((((2,), (2,)), 2, 2), (((1,), (1,)), 3, 1)):
        k = len(mus)
        assert hall_pair_h(ple_log(omega(m, k, N)), mus) == \
            hall_pair_h(ple_log(omega(m, k, N + 1)), mus)


MU_CASES = [
    *((((2, 1), (2, 1)), m) for m in (0, 1, 2, 4)),
    (((2,), (1, 1)), 2), (((1, 1), (2,)), 2), (((2, 1), (1, 1, 1)), 1),
    (((3, 1),), 1), (((2, 2),), 1), (((2, 1, 1),), 1), (((3, 2),), 1),
    (((1, 1), (1, 1), (1, 1)), 2),
]


@pytest.mark.parametrize("mus, m", MU_CASES, ids=[
    "|".join(map(pt.partition_text, mus)) + f"-m{m}" for mus, m in MU_CASES])
def test_truncation_at_mu_matches_row_bound(mus, m):
    # hlv_HH truncates at mu itself; the row bound |mu| is the oracle
    k, N = len(mus), sum(mus[0])
    assert hall_pair_h(ple_log(omega(m, k, mus)), mus) == \
        hall_pair_h(ple_log(omega(m, k, N)), mus)


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
        omega(-1, 1, 1)
    with pytest.raises(ValueError):
        omega(2, 0, 1)
