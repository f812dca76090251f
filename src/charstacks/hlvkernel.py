"""Hook functions, the kernel series Omega_m, and the functions HH_{mu,m}.

The kernel attaches to every partition lambda the hook rational function
in (z, w) and the product over k alphabets of the modified Macdonald
polynomial of lambda specialized at (z**2, w**2); HH_{mu,m} is the Hall
pairing of the plethystic logarithm of that series against h_mu, cleared
by the prefactor (z**2 - 1)(1 - w**2).

HH_{mu,m} truncates Omega, its Log and the m view at the multipartition mu
itself: a key (lam_1, ..., lam_k), standing for the product of the
p_lam_i / z_lam_i, is kept iff each of its partitions fits the matching
row lengths of mu (symfunc.fits).  That is sound because the dropped keys
span an ideal that products and plethysms preserve, and the m_mu
coefficient reads only the keys that refine mu, all of which fit.
test_truncation_stability asserts the degree form on the paired Log at N
and N + 1, and the tests compare the bound mu against the row bound |mu|.
"""

from __future__ import annotations

import itertools
import math

from .exactalg import ONE, Z, W, _mul_lowest
from . import partitions as pt
from .macdonald import specialized_H
from .symfunc import SymFunc, fits, ple_log, hall_pair_h


def hook_H(m, lam):
    """The hook function: product over cells of
    (z^(2a+1) - w^(2l+1))^m / ((z^(2a+2) - w^(2l)) (z^(2a) - w^(2l+2))).
    """
    lam = pt.check_partition(lam)
    out = ONE
    for _, a, l in pt.hooks(lam):
        num = (Z ** (2 * a + 1) - W ** (2 * l + 1)) ** m
        den = (Z ** (2 * a + 2) - W ** (2 * l)) * (Z ** (2 * a) - W ** (2 * l + 2))
        out = out * (num / den)
    return out


def omega(m, k, N):
    """The kernel series in k alphabets: 1 + sum over lambda of
    hook_H(m, lambda) * prod_i H_lambda(x_i; z**2, w**2), truncated at the
    bound N (an int, or one partition per alphabet; see SymFunc)."""
    bound = SymFunc(k, N).N
    size = min(map(sum, bound), default=0)
    if m < 0 or size < 1:
        raise ValueError(f"invalid kernel parameters m={m}, k={k}, N={N}")
    coeffs = {((),) * k: ONE}
    for n in range(1, size + 1):
        for lam in pt.enumerate_partitions(n):
            hook = hook_H(m, lam).simplified()
            pcoeffs = specialized_H(lam).coeffs
            per_alphabet = [[(mu, c.num) for (mu,), c in pcoeffs.items()
                             if fits(mu, rows)] for rows in bound]
            # shape by shape: one sum per degree swells over its hooks'
            # lcm.  Every term and partial sum is in stored form, so a
            # term costs a gcd of its Macdonald coefficient, an integral
            # polynomial, against the hook's denominator, and `+` a gcd
            # against the gcd of the two denominators (exactalg)
            for combo in itertools.product(*per_alphabet):
                key = tuple(mu for mu, _ in combo)
                term = _mul_lowest(hook, math.prod(p for _, p in combo))
                coeffs[key] = coeffs[key] + term if key in coeffs else term
    return SymFunc(k, N, coeffs)


def hlv_HH(mus, m):
    """HH_{mu,m}(z,w) = (z**2 - 1)(1 - w**2) <Plelog(Omega_m), h_mu>,
    with Omega_m truncated at the keys that fit mu."""
    mus = pt.check_multipartition(mus)
    paired = hall_pair_h(ple_log(omega(m, len(mus), mus)), mus)
    return _mul_lowest(paired, ((Z * Z - ONE) * (ONE - W * W)).num)
