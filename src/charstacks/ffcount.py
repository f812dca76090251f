"""Brute-force verification over small finite fields.

Counts solutions of the two surface-relation equations in GL_n(F_q):

  non-orientable:  D_1 theta(D_1) ... D_r theta(D_r) Z_1 ... Z_k = 1
  orientable:      [A_1,B_1] ... [A_g,B_g] X_1 ... X_k = 1

with Z_i / X_i constrained to prescribed semisimple conjugacy classes, and
forms the exact groupoid count raw / |GL_n(F_q)| for comparison with the
E-series formulas evaluated at q.

An orbit carries its field: a count reads n and q off its orbits,
refuses orbits that disagree, and compares with no formula (the CLI does).

Matrices are tuples of tuples of residues; products, determinants and
inverses are written out for each n <= 3, and so is the class key at
n = 2.  The solution count is assembled by convolving exact
distributions over GL_n: the number of D with D*theta(D) = g, of pairs
with commutator g, and the indicator of each orbit's members.  Each is a
class function, so it is stored as one value per conjugacy class, keyed
by (tr a, ..., tr a^(n-1), det a) and the minimal polynomial's degree,
which determine the class for n <= 3, q odd.

The class table, each element's key, costs one pass over GL_n, and so do
the table of D theta(D) and a split orbit's members, the elements with
its class key.  A convolution is evaluated on one representative per
class, summing over the elements of one factor's support: at most |GL|
products per class instead of |GL|^2 in all.  The commutator table is a
sum of convolutions, |C(K)| (1_K * 1_K^-1) over the classes K, so it too
costs |GL| products per class it is evaluated on.  The raw count is the
product's value at the identity, so the last factor f is only paired
there with the product d of the others: raw = sum over classes K of
|K| f(K) d(K^-1).  So all factors but the last two are convolved on every
class, and the factor before the last is evaluated only on the classes
K^-1 that f reads: one class for a central orbit.  A count holds each
element with its class key, and one inverse per class.  This reproduces
the raw tuple count exactly and stays brute force: no character table or
formula value enters.  n = 2 runs for every q <= 13: at q = 13 a count
with one central orbit takes 0.05-0.1 s for r <= 3 or g = 1, and 0.3 s
for g = 2 (in process, one core of an Intel Xeon, Python 3.11).  n = 3
runs only for q = 3.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import product
from operator import index

from . import charstack as cs

MAX_PRIME = 13
COST_CAP = 10**9


class EnumerationTooLarge(ValueError):
    """Raised before starting an enumeration that is too large: its cost
    exceeds COST_CAP, or the group is too large to hold in memory."""


def check_group(n, q):
    """Refuse q other than an odd prime <= MAX_PRIME, and n outside 1..3.
    Both are read through `operator.index`, so a float raises TypeError."""
    n, q = index(n), index(q)
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
    n = len(a)
    if n == 2:
        (a0, a1), (a2, a3) = a
        (b0, b1), (b2, b3) = b
        return (((a0 * b0 + a1 * b2) % q, (a0 * b1 + a1 * b3) % q),
                ((a2 * b0 + a3 * b2) % q, (a2 * b1 + a3 * b3) % q))
    if n == 3:
        (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
        (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
        return (((a0 * b0 + a1 * b3 + a2 * b6) % q,
                 (a0 * b1 + a1 * b4 + a2 * b7) % q,
                 (a0 * b2 + a1 * b5 + a2 * b8) % q),
                ((a3 * b0 + a4 * b3 + a5 * b6) % q,
                 (a3 * b1 + a4 * b4 + a5 * b7) % q,
                 (a3 * b2 + a4 * b5 + a5 * b8) % q),
                ((a6 * b0 + a7 * b3 + a8 * b6) % q,
                 (a6 * b1 + a7 * b4 + a8 * b7) % q,
                 (a6 * b2 + a7 * b5 + a8 * b8) % q))
    if n == 1:
        return ((a[0][0] * b[0][0] % q,),)
    raise ValueError("n <= 3 only")


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
    """Refuse GL_3(F_q) for q > 3, whose cost may be within COST_CAP: a
    count holds every element of the group, with its class key."""
    if n == 3 and q > 3:
        raise EnumerationTooLarge(
            f"GL_3(F_{q}) has {gl_order(3, q):.2e} elements: a count holds "
            "every element in memory, so GL_3(F_q) is enumerated only at "
            f"q = 3 ({gl_order(3, 3)} elements)")


def enumerate_gl(n, q):
    """All invertible n x n matrices, row-major entry order, singular skipped."""
    check_group(n, q)
    _check_memory(n, q)
    for m in product(list(product(range(q), repeat=n)), repeat=n):
        if det(m, q) != 0:
            yield m


# -- orbits ---------------------------------------------------------------------

@dataclass(frozen=True)
class FqOrbit:
    """A semisimple conjugacy class of GL_n(F_q): central zeta*I or a split
    class given by distinct nonzero eigenvalues with multiplicities."""
    n: int
    eigenvalues: tuple  # of (value mod q, multiplicity)
    q: int

    @staticmethod
    def central(zeta, n, q):
        check_group(n, q)
        zeta, n = index(zeta) % q, index(n)
        if zeta == 0:
            raise ValueError("zeta must be invertible")
        return FqOrbit(n=n, eigenvalues=((zeta, n),), q=q)

    @staticmethod
    def split(eigs, q):
        eigs = tuple((index(v) % q, index(m)) for v, m in eigs)
        vals = [v for v, _ in eigs]
        if 0 in vals or len(set(vals)) != len(vals):
            raise ValueError("eigenvalues must be distinct and nonzero")
        if any(m < 1 for _, m in eigs):
            raise ValueError("multiplicities must be >= 1")
        n = sum(m for _, m in eigs)
        check_group(n, q)
        return FqOrbit(n=n, eigenvalues=eigs, q=q)

    def is_central(self):
        return len(self.eigenvalues) == 1 and self.eigenvalues[0][1] == self.n

    def representative(self):
        diag = []
        for v, m in self.eigenvalues:
            diag.extend([v] * m)
        return tuple(tuple(diag[i] if i == j else 0 for j in range(self.n))
                     for i in range(self.n))

    def members(self):
        """The full conjugacy class (materialized; central is a singleton):
        the elements of GL_n whose class key is the representative's."""
        rep, q = self.representative(), self.q
        if self.is_central():
            return {rep}
        key = _class_key(rep, q)
        return {a for a in enumerate_gl(self.n, q) if _class_key(a, q) == key}

    def as_angles(self):
        """The same orbit as an OrbitSpec: g^k maps to the angle k/(q-1),
        for a generator g of F_q^x, so that a product of eigenvalues is 1
        exactly when the sum of their angles is an integer."""
        log = _discrete_log(self.q)
        return cs.OrbitSpec.make([(Fraction(log[v], self.q - 1), m)
                                  for v, m in self.eigenvalues])


def _discrete_log(q):
    """Map x -> k with x = g^k mod q, for the least generator g of F_q^x."""
    for g in range(1, q):
        log = {pow(g, k, q): k for k in range(q - 1)}
        if len(log) == q - 1:
            return log
    raise ValueError(f"q must be prime: {q}")


# -- class functions -------------------------------------------------------------

def _class_key(a, q):
    """((tr a, ..., tr a^(n-1), det a), degree of the minimal polynomial).

    Both are read off the powers a, ..., a^(n-1).  For q odd (check_group)
    the first part fixes the characteristic polynomial by Newton's
    identities: e_1 = p_1, e_2 = (p_1^2 - p_2)/2 for p_k = tr a^k, and
    e_n = det a.  For n <= 3 the pair fixes the invariant factors, so it is
    a complete conjugacy invariant: degree n leaves the characteristic
    polynomial as the one factor, degree 1 means a scalar, and degree 2
    (n = 3) leaves x - c and the characteristic polynomial divided by x - c,
    c its repeated root.

    The degree is the dimension of the span of I, a, ..., a^(n-1).  Once
    p[0][0] I is taken off each power p, I is the only one with a nonzero
    (0, 0) entry, so the degree is 1 plus the rank of at most two vectors:
    0 for a scalar; otherwise 1, plus 1 when n = 3 and a^2 - (a^2)[0][0] I
    is not proportional to a - a[0][0] I.  For n = 2 that is the closed form
    ((tr a, det a), 1 if a is scalar else 2), on entries reduced mod q.
    """
    n = len(a)
    if n == 2:
        (a0, a1), (a2, a3) = a
        return (((a0 + a3) % q, (a0 * a3 - a1 * a2) % q),
                1 if a0 == a3 and not a1 and not a2 else 2)
    powers = [a]
    while len(powers) < n - 1:
        powers.append(mat_mul(powers[-1], a, q))
    traces = tuple(sum(p[i][i] for i in range(n)) % q for p in powers[:n - 1])
    u, *v = [[(x - p[0][0] * (i == j)) % q for i, row in enumerate(p)
              for j, x in enumerate(row)] for p in powers]
    degree = 1
    if any(u):
        # w is a multiple of u iff each 2 x 2 minor through a nonzero entry
        # u[i] vanishes
        i = next(i for i, x in enumerate(u) if x)
        degree = 2 + any((u[i] * y - x * w[i]) % q
                         for w in v for x, y in zip(u, w))
    return traces + (det(a, q),), degree


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

    def convolve(self, f1, f2, q, at):
        """(f1 * f2)(c) = sum over a in supp f1 of f1(a) f2(a^-1 c), on one
        representative c of each class in `at`, with a^-1 running over the
        inverse class of each class of supp f1: |supp f1| products per class
        in `at`."""
        # det is multiplicative, so f1 * f2 vanishes off these determinants
        dets = {_det(k1) * _det(k2) % q for k1 in f1 for k2 in f2}
        out = {}
        for k in at:
            if _det(k) not in dets:
                continue
            c = self.members[k][0]
            total = sum(v * f2.get(self.key[mat_mul(b, c, q)], 0)
                        for ka, v in f1.items()
                        for b in self.members[self.inverse[ka]])
            if total:
                out[k] = total
        return out


def _dtheta(cls, q, at):
    """N(g) = #{D : D theta(D) = g} on the classes `at`: a class function,
    since D -> h D h^T maps the solutions for g onto those for h g h^-1.
    One pass over GL, whatever `at` is."""
    tally = Counter(cls.key[mat_mul(d, theta(d, q), q)] for d in cls.key)
    return cls.class_function({k: t for k, t in tally.items() if k in at})


def _commutators(cls, q, at):
    """N(c) = #{(a, b) : a b a^-1 b^-1 = c} on the classes `at`.  For each a,
    b a^-1 b^-1 runs over the class of a^-1, taking each value for |C(a)|
    of the b.  So N is the sum over classes K of |C(K)| (1_K * 1_K^-1):
    one convolution per class, |GL| products per class in `at` in all."""
    out = {}
    for k, members in cls.members.items():
        pairs = cls.convolve({k: 1}, {cls.inverse[k]: 1}, q, at)
        for c, v in pairs.items():
            out[c] = out.get(c, 0) + cls.order // len(members) * v
    return out


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

    def as_dict(self):
        return dict(asdict(self), groupoid_count=str(self.groupoid_count))


def _estimate_cost(n, q, steps):
    """Matrix products: q^n bounds the number of conjugacy classes, and each
    step evaluates one class function on every class, summing over at most
    |GL| elements."""
    return float(q**n * gl_order(n, q) * max(steps, 1))


def check_size(copies, k, q, n):
    """Raise ValueError for a group outside `check_group`, and
    EnumerationTooLarge for a count of `copies` factors and k orbits in
    GL_n(F_q) too large to run."""
    check_group(n, q)
    est = _estimate_cost(n, q, copies + k)
    if est > COST_CAP:
        raise EnumerationTooLarge(
            f"estimated {est:.2e} matrix operations exceeds cap "
            f"{COST_CAP:.0e} (a count takes up to q^n classes x "
            "|GL_n(F_q)| products per step)")
    _check_memory(n, q)


def _count(surface, word, copies, orbits):
    """Count the tuples of `copies` factors, each distributed as
    word(cls, q, at) on the classes `at`, then one element of each orbit,
    whose product is 1.  n and q are the orbits' own."""
    shared = {(o.n, o.q) for o in orbits}
    if len(shared) != 1:
        raise ValueError("orbits must share n and q")
    (n, q), = shared
    check_size(copies, len(orbits), q, n)
    cls = _Classes.of(n, q)
    *factors, last = [
        cls.class_function(Counter(cls.key[m] for m in o.members()))
        for o in orbits]
    # the last factor is paired with the product of the others at the
    # identity only, which reads that product on the classes inverse to the
    # last factor's: the factor before the last is evaluated there only
    at = {cls.inverse[k] for k in last}
    if copies:
        alone = copies == 1 and not factors
        factors[:0] = [word(cls, q, at if alone else cls.members)] * copies
    # a genus 0 count with one orbit pairs it with the identity's indicator
    dist = factors[0] if factors else {cls.key[identity(n)]: 1}
    for f in factors[1:-1]:
        dist = cls.convolve(f, dist, q, cls.members)
    if len(factors) > 1:
        dist = cls.convolve(factors[-1], dist, q, at)
    raw = sum(len(cls.members[k]) * v * dist.get(cls.inverse[k], 0)
              for k, v in last.items())
    return CountReport(
        surface=surface,
        orbits=[{"eigenvalues": list(o.eigenvalues)} for o in orbits],
        q=q, n=n, raw_count=raw, gl_order=cls.order,
        groupoid_count=Fraction(raw, cls.order))


def count_nonorientable(r, orbits):
    """Count tuples (D_1..D_r, Z_1..Z_k) solving the non-orientable relation."""
    return _count(cs.nonorientable(r, len(orbits)).as_dict(),
                  _dtheta, r, orbits)


def count_orientable(g, orbits):
    """Count tuples (A_1,B_1..A_g,B_g, X_1..X_k) solving the genus-g relation."""
    return _count(cs.orientable(g, len(orbits)).as_dict(),
                  _commutators, g, orbits)
