"""Hook functions, the kernel series Omega_m, and the functions HH_{mu,m}.

The kernel attaches to every partition lambda the hook rational function
in (z, w) and the product over k alphabets of the modified Macdonald
polynomial of lambda specialized at (z**2, w**2); HH_{mu,m} is the Hall
pairing of the plethystic logarithm of that series against h_mu, cleared
by the prefactor (z**2 - 1)(1 - w**2).

Truncating Omega at |lambda| <= N is sound because the degree-n part of
the plethystic logarithm only depends on the series up to degree n; this
is asserted as the truncation-stability test rather than assumed silently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .exactalg import RatFunc, ONE, Z, W
from . import partitions as pt
from .macdonald import specialized_H
from .symfunc import SymFunc, ple_log, hall_pair_h


@dataclass(frozen=True)
class KernelConfig:
    """Kernel parameters: exponent m, alphabet count k, truncation N."""
    m: int
    k: int
    N: int

    def __post_init__(self):
        if self.m < 0 or self.k < 1 or self.N < 1:
            raise ValueError(f"invalid kernel config {self}")


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


def omega(cfg):
    """The kernel series: 1 + sum over 1 <= |lambda| <= N of
    hook_H(m, lambda) * prod_i H_lambda(x_i; z**2, w**2)."""
    total = SymFunc.one(cfg.k, cfg.N)
    for n in range(1, cfg.N + 1):
        for lam in pt.enumerate_partitions(n):
            hook = hook_H(cfg.m, lam).simplified()
            pcoeffs = {key[0]: c for key, c in specialized_H(lam).coeffs.items()}
            out = {}
            for combo in itertools.product(pcoeffs.items(), repeat=cfg.k):
                key = tuple(mu for mu, _ in combo)
                c = hook
                for _, v in combo:
                    c = c * v
                out[key] = out.get(key, RatFunc(0)) + c
            # reduce after each shape: unreduced, the hook denominators of
            # one degree multiply up, and later gcds on them dominate
            total = (total + SymFunc(cfg.k, cfg.N, out)).simplified()
    return total


@lru_cache(maxsize=None)
def _log_omega(m, k, N):
    """Plelog(Omega_m), shared by every multipartition it is paired with."""
    return ple_log(omega(KernelConfig(m=m, k=k, N=N)))


def hlv_HH(mus, m, N=None):
    """HH_{mu,m}(z,w) = (z**2 - 1)(1 - w**2) <Plelog(Omega_m), h_mu>.

    Independent of the truncation N as long as N >= |mu_i| (tested as the
    truncation-stability invariant).
    """
    mus = pt.check_multipartition(mus)
    n = sum(mus[0])
    if N is None:
        N = max(n, 1)
    if N < n:
        raise ValueError("truncation bound below |mu|")
    paired = hall_pair_h(_log_omega(m, len(mus), N), mus)
    # prefactor applied before any cleanup so the cancellation is exact
    return ((Z * Z - ONE) * (ONE - W * W) * paired).simplified()
