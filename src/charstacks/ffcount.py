"""Brute-force verification over small finite fields.

Counts solutions of the two surface-relation equations in GL_n(F_q):

  non-orientable:  D_1 theta(D_1) ... D_r theta(D_r) Z_1 ... Z_k = 1
  orientable:      [A_1,B_1] ... [A_g,B_g] X_1 ... X_k = 1

with Z_i / X_i constrained to prescribed semisimple conjugacy classes, and
forms the exact groupoid count raw / |GL_n(F_q)| for comparison with the
E-series formulas evaluated at q.

Matrices are tuples of tuples of residues.  The solution count is
assembled by convolving exact distributions over GL_n (the distribution of
D*theta(D), of commutators, and of orbit indicators): this reproduces the
raw tuple count exactly while keeping the work at |GL|^2 products for the
working cases (n = 2, q <= 13; n = 3 only for tiny q).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import charstack as cs

MAX_PRIME = 13
DEFAULT_COST_CAP = 10**9


class EnumerationTooLarge(ValueError):
    """Raised before starting an enumeration whose cost exceeds the cap."""

    def __init__(self, estimate, cap):
        super().__init__(
            f"estimated {estimate:.2e} matrix operations exceeds cap {cap:.0e}")
        self.estimate = estimate
        self.cap = cap


def _check_field(q):
    if q <= 2 or q > MAX_PRIME:
        raise ValueError(f"q must be an odd prime <= {MAX_PRIME}: {q}")
    if any(q % p == 0 for p in (2, 3, 5, 7, 11) if p < q):
        raise ValueError(f"q must be prime: {q}")


# -- matrix arithmetic mod q ---------------------------------------------------

def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a, b, q):
    n = len(a)
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(n)) % q for j in range(n))
        for i in range(n))


def mat_scale(c, a, q):
    return tuple(tuple((c * x) % q for x in row) for row in a)


def transpose(a):
    n = len(a)
    return tuple(tuple(a[j][i] for j in range(n)) for i in range(n))


def det(a, q):
    n = len(a)
    if n == 1:
        return a[0][0] % q
    if n == 2:
        return (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % q
    if n == 3:
        return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])) % q
    raise ValueError("n <= 3 only")


def mat_inv(a, q):
    n = len(a)
    d = det(a, q)
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    dinv = pow(d, q - 2, q)
    if n == 1:
        return ((dinv,),)
    if n == 2:
        return (((a[1][1] * dinv) % q, (-a[0][1] * dinv) % q),
                ((-a[1][0] * dinv) % q, (a[0][0] * dinv) % q))
    if n == 3:
        cof = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                rows = [r for r in range(3) if r != i]
                cols = [c for c in range(3) if c != j]
                m = (a[rows[0]][cols[0]] * a[rows[1]][cols[1]]
                     - a[rows[0]][cols[1]] * a[rows[1]][cols[0]])
                cof[j][i] = ((-1) ** (i + j) * m * dinv) % q
        return tuple(tuple(row) for row in cof)
    raise ValueError("n <= 3 only")


def theta(a, q):
    """Cartan involution: inverse of the transpose."""
    return mat_inv(transpose(a), q)


def gl_order(n, q):
    qn = q**n
    order = 1
    for i in range(n):
        order *= qn - q**i
    return order


def enumerate_gl(n, q):
    """All invertible n x n matrices, row-major entry order, singular skipped."""
    _check_field(q)
    if n > 3:
        raise ValueError("n <= 3 only")
    if n == 3 and q > 3:
        raise EnumerationTooLarge(float(q**9), float(3**9))

    def rec(entries):
        if len(entries) == n * n:
            m = tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))
            if det(m, q) != 0:
                yield m
            return
        for x in range(q):
            yield from rec(entries + [x])

    yield from rec([])


# -- orbits ---------------------------------------------------------------------

@dataclass(frozen=True)
class FqOrbit:
    """A semisimple conjugacy class: central zeta*I or a split class given by
    distinct nonzero eigenvalues with multiplicities."""
    n: int
    eigenvalues: tuple  # of (value mod q, multiplicity)

    @staticmethod
    def central(zeta, n, q):
        zeta %= q
        if zeta == 0:
            raise ValueError("zeta must be invertible")
        return FqOrbit(n=n, eigenvalues=((zeta, n),))

    @staticmethod
    def split(eigs, q):
        eigs = tuple((v % q, m) for v, m in eigs)
        vals = [v for v, _ in eigs]
        if 0 in vals or len(set(vals)) != len(vals):
            raise ValueError("eigenvalues must be distinct and nonzero")
        return FqOrbit(n=sum(m for _, m in eigs), eigenvalues=eigs)

    def is_central(self):
        return len(self.eigenvalues) == 1 and self.eigenvalues[0][1] == self.n

    def representative(self, q):
        diag = []
        for v, m in self.eigenvalues:
            diag.extend([v] * m)
        return tuple(tuple(diag[i] if i == j else 0 for j in range(self.n))
                     for i in range(self.n))

    def members(self, q):
        """The full conjugacy class (materialized; central is a singleton)."""
        rep = self.representative(q)
        if self.is_central():
            return {rep}
        out = set()
        for g in enumerate_gl(self.n, q):
            out.add(mat_mul(mat_mul(g, rep, q), mat_inv(g, q), q))
        return out

    def as_angles(self, q):
        """The same orbit as an OrbitSpec: g^k maps to the angle k/(q-1),
        for a generator g of F_q^x, so that a product of eigenvalues is 1
        exactly when the sum of their angles is an integer."""
        log = _discrete_log(q)
        return cs.OrbitSpec.make([(Fraction(log[v], q - 1), m)
                                  for v, m in self.eigenvalues])

    def is_generic_with(self, others, q):
        """Finite-field genericity of (self, *others): charstack.is_generic
        on their angles."""
        return cs.is_generic([o.as_angles(q) for o in (self, *others)])[0]


def _discrete_log(q):
    """Map x -> k with x = g^k mod q, for the least generator g of F_q^x."""
    for g in range(1, q):
        log = {pow(g, k, q): k for k in range(q - 1)}
        if len(log) == q - 1:
            return log
    raise ValueError(f"q must be prime: {q}")


# -- counting --------------------------------------------------------------------

@dataclass
class CountReport:
    surface: dict
    orbits: list
    q: int
    n: int
    raw_count: int
    gl_order: int
    groupoid_count: Fraction
    formula_value: Fraction = None
    match: bool = None

    def as_dict(self):
        return {
            "surface": self.surface,
            "orbits": self.orbits,
            "q": self.q,
            "n": self.n,
            "raw_count": self.raw_count,
            "gl_order": self.gl_order,
            "groupoid_count": str(self.groupoid_count),
            "formula_value": None if self.formula_value is None
                             else str(self.formula_value),
            "match": self.match,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def _convolve(d1, d2, q):
    """Convolution of two matrix-indexed count distributions."""
    out = {}
    for a, ca in d1.items():
        for b, cb in d2.items():
            m = mat_mul(a, b, q)
            out[m] = out.get(m, 0) + ca * cb
    return out


def _dtheta_distribution(n, q):
    dist = {}
    for d in enumerate_gl(n, q):
        m = mat_mul(d, theta(d, q), q)
        dist[m] = dist.get(m, 0) + 1
    return dist


def _commutator_distribution(n, q):
    dist = {}
    gl = list(enumerate_gl(n, q))
    for a in gl:
        ainv = mat_inv(a, q)
        for b in gl:
            m = mat_mul(mat_mul(a, b, q),
                        mat_mul(ainv, mat_inv(b, q), q), q)
            dist[m] = dist.get(m, 0) + 1
    return dist


def _estimate_cost(n, q, steps):
    return float(gl_order(n, q)) ** 2 * max(steps, 1)


def _finish_with_orbits(dist, orbits, q, n):
    """Fold in the orbit constraints; the last orbit is solved for rather
    than enumerated (its member is determined by the other factors)."""
    for orbit in orbits[:-1]:
        ind = {m: 1 for m in orbit.members(q)}
        dist = _convolve(dist, ind, q)
    last = orbits[-1].members(q)
    raw = 0
    for m, c in dist.items():
        if mat_inv(m, q) in last:
            raw += c
    return raw


def count_nonorientable(r, orbits, q, n, formula_value=None,
                        cost_cap=DEFAULT_COST_CAP):
    """Count tuples (D_1..D_r, Z_1..Z_k) solving the non-orientable relation."""
    _check_field(q)
    if r < 1 or not orbits:
        raise ValueError("need r >= 1 and at least one orbit")
    if any(o.n != n for o in orbits):
        raise ValueError("orbit size mismatch")
    est = _estimate_cost(n, q, r + len(orbits))
    if est > cost_cap:
        raise EnumerationTooLarge(est, cost_cap)
    base = _dtheta_distribution(n, q)
    dist = base
    for _ in range(r - 1):
        dist = _convolve(dist, base, q)
    raw = _finish_with_orbits(dist, orbits, q, n)
    order = gl_order(n, q)
    groupoid = Fraction(raw, order)
    return CountReport(
        surface={"kind": "nonorientable", "r": r, "k": len(orbits)},
        orbits=[{"eigenvalues": list(o.eigenvalues)} for o in orbits],
        q=q, n=n, raw_count=raw, gl_order=order,
        groupoid_count=groupoid,
        formula_value=formula_value,
        match=None if formula_value is None else groupoid == formula_value,
    )


def count_orientable(g, orbits, q, n, formula_value=None,
                     cost_cap=DEFAULT_COST_CAP):
    """Count tuples (A_1,B_1..A_g,B_g, X_1..X_k) solving the genus-g relation."""
    _check_field(q)
    if g < 0 or not orbits:
        raise ValueError("need g >= 0 and at least one orbit")
    if any(o.n != n for o in orbits):
        raise ValueError("orbit size mismatch")
    est = _estimate_cost(n, q, 2 * g + len(orbits))
    if est > cost_cap:
        raise EnumerationTooLarge(est, cost_cap)
    if g == 0:
        dist = {identity(n): 1}
    else:
        base = _commutator_distribution(n, q)
        dist = base
        for _ in range(g - 1):
            dist = _convolve(dist, base, q)
    raw = _finish_with_orbits(dist, orbits, q, n)
    order = gl_order(n, q)
    groupoid = Fraction(raw, order)
    return CountReport(
        surface={"kind": "orientable", "g": g, "k": len(orbits)},
        orbits=[{"eigenvalues": list(o.eigenvalues)} for o in orbits],
        q=q, n=n, raw_count=raw, gl_order=order,
        groupoid_count=groupoid,
        formula_value=formula_value,
        match=None if formula_value is None else groupoid == formula_value,
    )
