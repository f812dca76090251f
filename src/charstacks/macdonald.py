"""Modified Macdonald symmetric polynomials in one alphabet.

H~_mu is built directly from the Haglund-Haiman-Loehr formula (A
combinatorial formula for Macdonald polynomials, JAMS 18, 2005):

    H~_mu = sum over fillings sigma of mu of q^inv(sigma) t^maj(sigma) x^sigma.

H~_mu is symmetric, so its m_lam coefficient is the sum over the distinct
fillings with content lam (lam_1 ones, lam_2 twos, ...): an integer
polynomial in q and t, with no rational-function arithmetic and no gcd.
SymFunc.from_basis turns these into the coefficients it stores, in the
basis p_lam / z_lam, where they are integer polynomials too.
Conventions, in the French diagram (row 1, of length mu_1, at the bottom):

  * reading order: the top row first, then downwards, left to right
    within each row;
  * cells u and v attack if they share a row, or if u lies in the row just
    above v and strictly to its right; an inversion is an attacking pair
    whose earlier cell in reading order holds the larger entry;
  * u is a descent if its entry exceeds that of the cell directly below;
  * maj = sum over descents u of leg(u) + 1, and
    inv = #inversions - sum over descents u of arm(u).

The monic P_mu is derived from H~_mu by inverting the plethystic transform
H~_mu = t^{n(mu)} J_mu[X/(1-t)](q, 1/t), J_mu = prod_s (1 - q^a t^{l+1}) P_mu,
key by key in the stored basis, where the plethysm X -> X/(1-t) is
diagonal as in the power sums.  Nothing in either construction uses the
(q,t) Hall form, so orthogonality of the P_mu under it is an independent
certificate of H~_mu, next to Schur positivity and q<->t symmetry.
"""

from __future__ import annotations

import itertools

from .exactalg import MPoly, RatFunc, ONE, Q, T, Z, W, NVARS, VAR_INDEX
from . import partitions as pt
from .symfunc import SymFunc


def _p_norm_factor(lam):
    """<P_lam, P_lam>_{q,t} for the stored basis element P_lam = p_lam /
    z_lam: <p_lam, p_lam>_{q,t} / z_lam^2 = prod_i (1-q^{lam_i}) /
    (1-t^{lam_i}) / z_lam, with z_lam in the integer denominator."""
    factor = RatFunc(1, pt.zlambda(lam))
    for part in lam:
        factor = factor * ((ONE - Q**part) / (ONE - T**part))
    return factor


def qt_inner(f, g):
    """The (q,t) Hall form on single-alphabet SymFunc values."""
    terms = [(a * g.coeffs[key] * _p_norm_factor(key[0])).simplified()
             for key, a in f.coeffs.items() if key in g.coeffs]
    return RatFunc.sum(terms)


def _hhl_diagram(mu):
    """The attacking pairs (earlier, later) and the descent checks
    (upper, lower, leg + 1, arm) of mu, as indices into the reading order.

    Cells are partitions.hooks pairs (i, j) with row i = 1 the longest, so
    in the French diagram row i + 1 lies just above row i.
    """
    leg1_arm = {s: (l + 1, a) for s, a, l in pt.hooks(mu)}
    order = sorted(leg1_arm, key=lambda s: (-s[0], s[1]))
    index = {s: k for k, s in enumerate(order)}
    attacks = [(index[u], index[v]) for u in order for v in order
               if index[u] < index[v]
               and (u[0] == v[0] or (u[0] == v[0] + 1 and u[1] > v[1]))]
    descents = [(index[u], index[(u[0] - 1, u[1])], *leg1_arm[u])
                for u in order if u[0] > 1]
    return attacks, descents


def modified_H(mu):
    """Modified Macdonald polynomial H~_mu(x; q, t) as a SymFunc."""
    mu = pt.check_partition(mu)
    n = sum(mu)
    if n == 0:
        return SymFunc.one(1, 1)
    attacks, descents = _hhl_diagram(mu)
    qi, ti = VAR_INDEX["q"], VAR_INDEX["t"]
    coeffs = {}
    for lam in pt.enumerate_partitions(n):
        terms = {}
        letters = [i for i, part in enumerate(lam) for _ in range(part)]
        for word in set(itertools.permutations(letters)):
            inv = sum(word[a] > word[b] for a, b in attacks)
            maj = 0
            for u, below, leg1, arm in descents:
                if word[u] > word[below]:
                    maj += leg1
                    inv -= arm
            terms[inv, maj] = terms.get((inv, maj), 0) + 1
        poly = {}
        for (inv, maj), count in terms.items():
            e = [0] * NVARS
            e[qi], e[ti] = inv, maj
            poly[tuple(e)] = count
        coeffs[(lam,)] = RatFunc(MPoly(poly))
    return SymFunc.from_basis("m", coeffs, 1, n)


def macdonald_P(mu):
    """Monic Macdonald polynomial P_mu(x; q, t) as a SymFunc.

    In the stored basis, as in the p basis, c_P(rho) = t^{n(mu)}
    c_H(rho)(q, 1/t) * prod_i (1 - t^{rho_i})
    / prod_{s in mu} (1 - q^{a(s)} t^{l(s)+1}).
    """
    mu = pt.check_partition(mu)
    jscale = ONE
    for _, a, l in pt.hooks(mu):
        jscale = jscale * (ONE - Q ** a * T ** (l + 1))
    tn = T ** pt.nstat(mu)
    coeffs = {}
    for (rho,), c in modified_H(mu).coeffs.items():
        c = c.substitute({"t": ONE / T}) * tn
        for part in rho:
            c = c * (ONE - T**part)
        coeffs[(rho,)] = (c / jscale).simplified()
    return SymFunc(1, max(sum(mu), 1), coeffs)


def specialized_H(mu):
    """Modified H_mu with q -> z**2 and t -> w**2 in every coefficient."""
    return modified_H(mu).map_coefficients(
        lambda c: c.substitute({"q": Z * Z, "t": W * W}))


def schur_coefficients(mu):
    """Expansion of modified H_mu in the Schur basis: dict partition -> RatFunc."""
    return {key[0]: c for key, c in modified_H(mu).to_basis("s").items()}
