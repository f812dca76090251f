"""Hook functions, the kernel series Omega_m, and the functions HH_{mu,m}.

The kernel attaches to every partition lambda the hook rational function
in (z, w) and the product over k alphabets of the modified Macdonald
polynomial of lambda specialized at (z**2, w**2); HH_{mu,m} is the Hall
pairing of the plethystic logarithm of that series against h_mu, cleared
by the prefactor (z**2 - 1)(1 - w**2).

HH_{mu,m} truncates Omega at |lambda| <= |mu|.  That is sound because the
degree-n part of the plethystic logarithm only depends on the series up to
degree n; test_truncation_stability asserts it on the paired Log at N and
N + 1 rather than assuming it silently.
"""

from __future__ import annotations

import itertools
import math

from .exactalg import ONE, Z, W
from . import partitions as pt
from .macdonald import specialized_H
from .symfunc import SymFunc, ple_log, hall_pair_h


def hook_H(m, lam):
    """The hook function: product over cells of
    (z^(2a+1) - w^(2l+1))^m / ((z^(2a+2) - w^(2l)) (z^(2a) - w^(2l+2))).
    """
    lam = pt.check_partition(lam)
    out = ONE
    for s in pt.cells(lam):
        a, l = pt.arm(lam, s), pt.leg(lam, s)
        num = (Z ** (2 * a + 1) - W ** (2 * l + 1)) ** m
        den = (Z ** (2 * a + 2) - W ** (2 * l)) * (Z ** (2 * a) - W ** (2 * l + 2))
        out = out * (num / den)
    return out


def omega(m, k, N):
    """The kernel series in k alphabets: 1 + sum over 1 <= |lambda| <= N of
    hook_H(m, lambda) * prod_i H_lambda(x_i; z**2, w**2)."""
    if m < 0 or k < 1 or N < 1:
        raise ValueError(f"invalid kernel parameters m={m}, k={k}, N={N}")
    total = SymFunc.one(k, N)
    for n in range(1, N + 1):
        for lam in pt.enumerate_partitions(n):
            hook = hook_H(m, lam).simplified()
            pcoeffs = {key[0]: c for key, c in specialized_H(lam).coeffs.items()}
            out = {tuple(mu for mu, _ in combo):
                   hook * math.prod(v for _, v in combo)
                   for combo in itertools.product(pcoeffs.items(), repeat=k)}
            # shape by shape: one sum per degree swells over its hooks' lcm
            total = total + SymFunc(k, N, out)
    return total


def hlv_HH(mus, m):
    """HH_{mu,m}(z,w) = (z**2 - 1)(1 - w**2) <Plelog(Omega_m), h_mu>,
    with Omega_m truncated at |lambda| <= |mu|."""
    mus = pt.check_multipartition(mus)
    N = sum(mus[0])
    paired = hall_pair_h(ple_log(omega(m, len(mus), N)), mus)
    return ((Z * Z - ONE) * (ONE - W * W) * paired).simplified()
