"""Brute-force verification over small finite fields.

Counts solutions of the two surface-relation equations in GL_n(F_q):

  non-orientable:  D_1 theta(D_1) ... D_r theta(D_r) Z_1 ... Z_k = 1
  orientable:      [A_1,B_1] ... [A_g,B_g] X_1 ... X_k = 1

with Z_i / X_i constrained to prescribed semisimple conjugacy classes, and
forms the exact groupoid count raw / |GL_n(F_q)| for comparison with the
E-series formulas evaluated at q.

Matrices are tuples of tuples of residues.  The solution count is
assembled by convolving exact distributions over GL_n: the number of D
with D*theta(D) = g, of pairs with commutator g, and the indicator of
each orbit's members.  Each is a class function, so it is stored as one
value per conjugacy class, keyed by (tr a, ..., tr a^(n-1), det a) and the
minimal polynomial's degree, which determine the class for n <= 3, q odd.  A
convolution is evaluated on one representative per class, summing over
the elements of one factor's support: at most #classes x |GL| products
instead of |GL|^2.  The raw count is the product's value at the
identity, so the last factor f is only paired there with the product d of
the others: raw = sum over classes K of |K| f(K) d(K^-1).  A count holds
each element with its class key, and one inverse per class.  This
reproduces the raw tuple count exactly and stays brute force: no
character table or formula value enters.  n = 2 runs for every q <= 13;
n = 3 only for q = 3.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import product
from math import isnan
from operator import mul

from . import charstack as cs

MAX_PRIME = 13
DEFAULT_COST_CAP = 10**9


class EnumerationTooLarge(ValueError):
    """Raised before starting an enumeration that is too large: its cost
    exceeds the cap, or the group is too large to hold in memory."""


def check_group(n, q):
    """Refuse q other than an odd prime <= MAX_PRIME, and n outside 1..3."""
    if q <= 2 or q > MAX_PRIME:
        raise ValueError(f"q must be an odd prime <= {MAX_PRIME}: {q}")
    if any(q % p == 0 for p in (2, 3, 5, 7, 11) if p < q):
        raise ValueError(f"q must be prime: {q}")
    if not 1 <= n <= 3:
        raise ValueError(f"n <= 3 only: {n}" if n > 3 else
                         f"n must be at least 1 (and n <= 3 only): {n}")


# -- matrix arithmetic mod q ---------------------------------------------------

def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a, b, q):
    cols = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) % q for col in cols])
                  for row in a])


def transpose(a):
    return tuple(zip(*a))


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
        # entry (i, j) is det^-1 times the cofactor of a[j][i]: with the rows
        # and columns after j and i taken cyclically, the minor has its sign
        c = ((1, 2), (2, 0), (0, 1))
        return tuple(tuple((a[c[j][0]][c[i][0]] * a[c[j][1]][c[i][1]]
                            - a[c[j][0]][c[i][1]] * a[c[j][1]][c[i][0]])
                           * dinv % q for j in range(3)) for i in range(3))
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


def _check_memory(n, q):
    """Refuse GL_3(F_q) for q > 3, whatever the cost cap: a count holds
    every element of the group, with its class key."""
    if n == 3 and q > 3:
        raise EnumerationTooLarge(
            f"GL_3(F_{q}) has {gl_order(3, q):.2e} elements: a count holds "
            "every element in memory, so GL_3(F_q) is enumerated only at "
            f"q = 3 ({gl_order(3, 3)} elements), whatever the cost cap")


def enumerate_gl(n, q):
    """All invertible n x n matrices, row-major entry order, singular skipped."""
    check_group(n, q)
    _check_memory(n, q)
    for entries in product(range(q), repeat=n * n):
        m = tuple(entries[i * n:(i + 1) * n] for i in range(n))
        if det(m, q) != 0:
            yield m


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


def _discrete_log(q):
    """Map x -> k with x = g^k mod q, for the least generator g of F_q^x."""
    for g in range(1, q):
        log = {pow(g, k, q): k for k in range(q - 1)}
        if len(log) == q - 1:
            return log
    raise ValueError(f"q must be prime: {q}")


# -- class functions -------------------------------------------------------------

def _rank(rows, q):
    """Rank over F_q of a list of equal-length rows."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], q - 2, q)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv
            rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _class_key(a, q):
    """((tr a, ..., tr a^(n-1), det a), degree of the minimal polynomial).

    Both are read off the powers I, a, ..., a^(n-1), the degree as the
    dimension of their span.  For q odd (check_group) the first part fixes
    the characteristic polynomial by Newton's identities: e_1 = p_1,
    e_2 = (p_1^2 - p_2)/2 for p_k = tr a^k, and e_n = det a.  For n <= 3 the
    pair fixes the invariant factors, so it is a complete conjugacy
    invariant: degree n leaves the characteristic polynomial as the one
    factor, degree 1 means a scalar, and degree 2 (n = 3) leaves x - c and
    the characteristic polynomial divided by x - c, c its repeated root.
    """
    n = len(a)
    powers = [identity(n), a][:n]
    while len(powers) < n:
        powers.append(mat_mul(powers[-1], a, q))
    traces = tuple(sum(p[i][i] for i in range(n)) % q for p in powers[1:])
    return traces + (det(a, q),), _rank([sum(p, ()) for p in powers], q)


def _det(key):
    """The determinant of the elements with this class key."""
    return key[0][-1]


@dataclass
class _Classes:
    """GL_n(F_q) split into conjugacy classes by _class_key.

    A class function is a dict from class key to its value on each element
    of the class; keys it omits have value 0.
    """
    order: int
    key: dict      # element -> class key
    inverse: dict  # class key -> key of the inverse class
    members: dict  # class key -> elements

    @staticmethod
    def of(n, q):
        key, members = {}, {}
        for a in enumerate_gl(n, q):
            k = _class_key(a, q)
            key[a] = k
            members.setdefault(k, []).append(a)
        inverse = {k: key[mat_inv(ms[0], q)] for k, ms in members.items()}
        return _Classes(len(key), key, inverse, members)

    def class_function(self, tally):
        """The class function whose sum over each class is `tally`."""
        out = {}
        for k, total in tally.items():
            value, rest = divmod(total, len(self.members[k]))
            if rest:
                raise ValueError(
                    f"tally {total} on a class of {len(self.members[k])} "
                    "elements: not a class function")
            out[k] = value
        return out

    def convolve(self, f1, f2, q):
        """(f1 * f2)(c) = sum over a in supp f1 of f1(a) f2(a^-1 c), on one
        representative c per class, with a^-1 running over the inverse
        class of each class of supp f1: #classes x |supp f1| products."""
        # det is multiplicative, so f1 * f2 vanishes off these determinants
        dets = {_det(k1) * _det(k2) % q for k1 in f1 for k2 in f2}
        out = {}
        for k, members in self.members.items():
            if _det(k) not in dets:
                continue
            c = members[0]
            total = sum(v * f2.get(self.key[mat_mul(b, c, q)], 0)
                        for ka, v in f1.items()
                        for b in self.members[self.inverse[ka]])
            if total:
                out[k] = total
        return out


def _dtheta(cls, q):
    """N(g) = #{D : D theta(D) = g}: a class function, since D -> h D h^T
    maps the solutions for g onto those for h g h^-1."""
    return cls.class_function(
        Counter(cls.key[mat_mul(d, theta(d, q), q)] for d in cls.key))


def _commutators(cls, q):
    """N(c) = #{(a, b) : a b a^-1 b^-1 = c}.  For a in a class K, b a^-1 b^-1
    runs over the class K^-1 of a^-1, taking each value for |C(a)| =
    |GL| / |K| of the b, so N = sum_K |C(K)| (1_K * 1_{K^-1})."""
    out = Counter()
    for k, members in cls.members.items():
        out.update(cls.convolve({k: cls.order // len(members)},
                                {cls.inverse[k]: 1}, q))
    return dict(out)


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
        d = asdict(self)
        d["groupoid_count"] = str(self.groupoid_count)
        if self.formula_value is not None:
            d["formula_value"] = str(self.formula_value)
        return d

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def _estimate_cost(n, q, steps):
    """Matrix products: q^n bounds the number of conjugacy classes, and each
    step evaluates one class function on every class, summing over at most
    |GL| elements."""
    return float(q**n * gl_order(n, q) * max(steps, 1))


def check_size(copies, k, q, n, cost_cap=DEFAULT_COST_CAP):
    """Raise ValueError for a group outside `check_group` or a NaN cap
    (which no estimate exceeds), and EnumerationTooLarge for a count of
    `copies` factors and k orbits in GL_n(F_q) too large to run."""
    check_group(n, q)
    if isnan(cost_cap):
        raise ValueError(f"the cost cap must be a number: {cost_cap}")
    est = _estimate_cost(n, q, copies + k)
    if est > cost_cap:
        raise EnumerationTooLarge(
            f"estimated {est:.2e} matrix operations exceeds cap {cost_cap:.0e} "
            "(a count takes up to q^n classes x |GL_n(F_q)| products per step)")
    _check_memory(n, q)


def _count(surface, word, copies, orbits, q, n, formula_value, cost_cap):
    """Count the tuples of `copies` factors, each distributed as
    word(cls, q), then one element of each orbit, whose product is 1."""
    if any(o.n != n for o in orbits):
        raise ValueError("orbit size mismatch")
    check_size(copies, len(orbits), q, n, cost_cap)
    cls = _Classes.of(n, q)
    one = cls.key[identity(n)]
    factors = [word(cls, q)] * copies if copies else []
    factors += [cls.class_function(Counter(cls.key[m] for m in o.members(q)))
                for o in orbits]
    # the last factor is paired with the others at the identity only; a
    # genus 0 count has one factor, paired with the identity's indicator
    dist = factors[0] if len(factors) > 1 else {one: 1}
    for f in factors[1:-1]:
        dist = cls.convolve(f, dist, q)
    raw = sum(len(cls.members[k]) * v * dist.get(cls.inverse[k], 0)
              for k, v in factors[-1].items())
    groupoid = Fraction(raw, cls.order)
    return CountReport(
        surface=surface,
        orbits=[{"eigenvalues": list(o.eigenvalues)} for o in orbits],
        q=q, n=n, raw_count=raw, gl_order=cls.order,
        groupoid_count=groupoid,
        formula_value=formula_value,
        match=None if formula_value is None else groupoid == formula_value,
    )


def count_nonorientable(r, orbits, q, n, formula_value=None,
                        cost_cap=DEFAULT_COST_CAP):
    """Count tuples (D_1..D_r, Z_1..Z_k) solving the non-orientable relation."""
    return _count(cs.nonorientable(r, len(orbits)).as_dict(),
                  _dtheta, r, orbits, q, n, formula_value, cost_cap)


def count_orientable(g, orbits, q, n, formula_value=None,
                     cost_cap=DEFAULT_COST_CAP):
    """Count tuples (A_1,B_1..A_g,B_g, X_1..X_k) solving the genus-g relation."""
    return _count(cs.orientable(g, len(orbits)).as_dict(),
                  _commutators, g, orbits, q, n, formula_value, cost_cap)
