import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from charstacks import charstack as cs
from charstacks import ffcount as fc
from charstacks.ffcount import enumerate_gl, mat_inv, mat_mul, theta


def test_gl_order():
    assert fc.gl_order(1, 3) == 2
    assert fc.gl_order(2, 3) == 48
    assert fc.gl_order(2, 5) == 480


def test_enumerate_gl_counts():
    assert sum(1 for _ in fc.enumerate_gl(1, 5)) == 4
    assert sum(1 for _ in fc.enumerate_gl(2, 3)) == 48
    # the invertible matrices, in row-major order of their entries
    for n, q in [(2, 5), (3, 3)]:
        want = [m for m in (tuple(e[i * n:(i + 1) * n] for i in range(n))
                            for e in itertools.product(range(q), repeat=n * n))
                if _cofactor_det(m, q)]
        assert list(fc.enumerate_gl(n, q)) == want


def test_enumerate_gl_guard():
    with pytest.raises(fc.EnumerationTooLarge):
        list(fc.enumerate_gl(3, 5))
    with pytest.raises(ValueError):
        list(fc.enumerate_gl(2, 4))  # not prime


def test_theta():
    q = 5
    assert fc.theta(fc.identity(2), q) == fc.identity(2)
    rng = random.Random(3)
    mats = list(fc.enumerate_gl(2, q))
    for a in rng.sample(mats, 10):
        assert fc.theta(fc.theta(a, q), q) == a
    for a in fc.enumerate_gl(1, q):
        assert fc.mat_mul(a, fc.theta(a, q), q) == fc.identity(1)


def test_nonorientable_n1_closed_form():
    for q in (3, 5, 7, 11, 13):
        for r in (1, 2, 3, 4):
            orb = fc.FqOrbit.central(1, 1, q)
            rep = fc.count_nonorientable(r, [orb])
            assert rep.raw_count == (q - 1) ** r
            assert rep.groupoid_count == Fraction((q - 1) ** (r - 1))
            assert rep.groupoid_count * rep.gl_order == rep.raw_count


def test_orientable_n1_closed_form():
    for q in (3, 5, 7, 11, 13):
        for g in (1, 2):
            orb = fc.FqOrbit.central(1, 1, q)
            rep = fc.count_orientable(g, [orb])
            assert rep.groupoid_count == Fraction((q - 1) ** (2 * g - 1))


def test_nonorientable_flagship():
    orb = fc.FqOrbit.central(-1, 2, 3)
    rep = fc.count_nonorientable(2, [orb])
    assert rep.groupoid_count == Fraction(2)


def test_nonorientable_nongeneric_orbit():
    # zeta = +1 is non-generic; the formula value q-1 does not apply
    orb = fc.FqOrbit.central(1, 2, 3)
    assert not cs.is_generic([orb.as_angles()])[0]
    rep = fc.count_nonorientable(2, [orb])
    assert rep.groupoid_count != 2


def test_orientable_flagship():
    orb = fc.FqOrbit.central(-1, 2, 3)
    rep = fc.count_orientable(1, [orb])
    assert rep.groupoid_count == Fraction(2)


def test_conjugation_invariance():
    # counting against a conjugated split orbit gives the same raw count
    q = 3
    orb = fc.FqOrbit.split([(1, 1), (2, 1)], q)
    rep1 = fc.count_nonorientable(1, [orb])
    members = orb.members()
    g = next(iter(fc.enumerate_gl(2, q)))
    conj = {fc.mat_mul(fc.mat_mul(g, m, q), fc.mat_inv(g, q), q)
            for m in members}
    assert conj == members
    assert rep1.groupoid_count * rep1.gl_order == rep1.raw_count


def test_genericity_finite_field():
    for zeta, generic in ((-1, True), (1, False)):
        orb = fc.FqOrbit.central(zeta, 2, 5)
        assert cs.is_generic([orb.as_angles()])[0] == generic
    # inverse pair (2, 3) over F_5: 2 * 3 = 1, so the k=2 tuple is degenerate
    pair = fc.FqOrbit.split([(2, 1), (3, 1)], 5)
    assert not cs.is_generic([o.as_angles() for o in (pair, pair)])[0]


@pytest.mark.parametrize("eigs", [((2, 0), (3, 2)), ((2, -1), (3, 3))])
def test_split_refuses_multiplicity_below_one(eigs):
    # as OrbitSpec.make does: either tuple would make an n = 2 orbit of 3s
    # whose record still lists the eigenvalue 2
    with pytest.raises(ValueError, match="multiplicities must be >= 1"):
        fc.FqOrbit.split(eigs, 5)


def test_genericity_finite_field_determinant():
    # over F_7, 2 has order 3: 2*I_1 has determinant 2 != 1, and 2*I_3 is
    # generic (2^3 = 1, and 2, 4 != 1)
    for zeta, n, generic in ((2, 1, False), (2, 3, True), (-1, 3, False)):
        orb = fc.FqOrbit.central(zeta, n, 7)
        assert cs.is_generic([orb.as_angles()])[0] == generic


def test_cost_cap():
    orb = fc.FqOrbit.central(-1, 3, 13)
    with pytest.raises(fc.EnumerationTooLarge):
        fc.count_nonorientable(2, [orb])


@pytest.mark.parametrize("orbits", [
    [fc.FqOrbit.central(-1, 2, 5), fc.FqOrbit.central(-1, 2, 7)],
    [fc.FqOrbit.central(-1, 1, 5), fc.FqOrbit.central(-1, 2, 5)],
], ids=["q5-q7", "n1-n2"])
def test_count_refuses_orbits_that_disagree(orbits):
    # residues mean something only mod their own q: -I_2 over F_5 is
    # stored as 4 I, which counted over F_7 would give 0 for 6
    for count in (fc.count_nonorientable, fc.count_orientable):
        with pytest.raises(ValueError, match="orbits must share n and q"):
            count(1, orbits)


@pytest.mark.parametrize("n", [0, -1, 4])
def test_group_range_refused(n):
    for check in (lambda: fc.check_size(2, 1, 5, n),
                  lambda: next(enumerate_gl(n, 5))):
        with pytest.raises(ValueError, match="n <= 3"):
            check()


def test_cost_model():
    # a step costs at most q^n class representatives times |GL| products
    assert fc._estimate_cost(2, 13, 2 + 1) <= fc.COST_CAP
    assert fc._estimate_cost(3, 13, 2 + 1) > fc.COST_CAP


def _generators(n, q):
    """I + E_ij for i != j, which generate SL_n(F_q) for prime q, and
    diag(g, 1, ..., 1) for a generator g of F_q^x: together they generate
    GL_n(F_q)."""
    g = next(x for x, k in fc._discrete_log(q).items() if k == 1)
    gens = [tuple(tuple(int(r == c) + int((r, c) == (i, j)) for c in range(n))
                  for r in range(n))
            for i in range(n) for j in range(n) if i != j]
    gens.append(tuple(tuple((g if r == 0 else 1) * int(r == c)
                            for c in range(n)) for r in range(n)))
    return gens


@pytest.mark.parametrize("n, q", [(1, 3), (2, 3), (3, 3), (1, 5), (2, 5),
                                  (2, 7), (2, 11), (2, 13)])
def test_class_keys_are_conjugacy_classes(n, q):
    # closed under conjugation by generators: each key's elements form a
    # union of classes; as many keys as GL_n(F_q) has classes (q - 1,
    # q^2 - 1, q^3 - q): each is exactly one class
    keys = {a: fc._class_key(a, q) for a in enumerate_gl(n, q)}
    for s in _generators(n, q):
        sinv = mat_inv(s, q)
        for a, key in keys.items():
            assert keys[mat_mul(mat_mul(s, a, q), sinv, q)] == key
    assert len(set(keys.values())) == {1: q - 1, 2: q**2 - 1, 3: q**3 - q}[n]
    # convolve prunes by the determinant read off the key
    for a, key in keys.items():
        assert fc._det(key) == fc.det(a, q)


def test_convolve_matches_element_oracle():
    # convolution is bilinear and class indicators span the class
    # functions, so all pairs of indicators cover every input at n = 2, q = 3
    q = 3
    classes = fc._Classes.of(2, q)
    for k1, k2 in itertools.product(classes.members, repeat=2):
        got = classes.convolve({k1: 1}, {k2: 1}, q, classes.members)
        want = _convolve(dict.fromkeys(classes.members[k1], 1),
                         dict.fromkeys(classes.members[k2], 1), q)
        assert {a: v for k, v in got.items()
                for a in classes.members[k]} == want, (k1, k2)


@pytest.mark.parametrize("n, q", [(1, 5), (2, 3), (2, 5), (3, 3)])
def test_class_inverse_map(n, q):
    # the inverse is kept per class: an involution on keys that agrees
    # with the inverse of every element
    classes = fc._Classes.of(n, q)
    for a, key in classes.key.items():
        assert classes.inverse[key] == classes.key[mat_inv(a, q)]
    for key, kinv in classes.inverse.items():
        assert classes.inverse[kinv] == key


def test_class_function_rejects_uneven_tally():
    q = 3
    classes = fc._Classes.of(2, q)
    split = fc.FqOrbit.split([(1, 1), (2, 1)], q).representative()
    key = classes.key[split]
    # one element of a class of q(q+1) elements
    with pytest.raises(ValueError, match="not a class function"):
        classes.class_function({key: 1})
    assert classes.class_function({key: q * (q + 1)}) == {key: 1}


def test_report_json():
    import json
    orb = fc.FqOrbit.central(-1, 2, 3)
    rep = fc.count_nonorientable(2, [orb])
    data = json.loads(json.dumps(rep.as_dict()))
    assert data["raw_count"] == rep.raw_count
    assert data["groupoid_count"] == "2"


def test_report_json_without_formula():
    import json
    rep = fc.count_orientable(1, [fc.FqOrbit.central(-1, 2, 3)])
    data = json.loads(json.dumps(rep.as_dict()))
    # the CLI, not the library, compares a count with its formula
    assert "formula_value" not in data and "match" not in data
    assert data["surface"] == {"kind": "orientable", "g": 1, "k": 1}


def test_count_surface_refused():
    # the surface record comes from SurfaceSpec, which also validates it
    orb = fc.FqOrbit.central(-1, 2, 3)
    with pytest.raises(ValueError, match="nonorientable surface needs r >= 1"):
        fc.count_nonorientable(0, [orb])
    with pytest.raises(ValueError, match="k must be >= 1"):
        fc.count_orientable(1, [])


# -- matrix kernels against their definitions -------------------------------------

def _triple_loop_mul(a, b, q):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % q
                       for j in range(n)) for i in range(n))


def _minor(a, i, j):
    return tuple(tuple(x for c, x in enumerate(row) if c != j)
                 for r, row in enumerate(a) if r != i)


def _cofactor_det(a, q):
    """Laplace expansion along the first row."""
    if not a:
        return 1
    return sum((-1) ** j * a[0][j] * _cofactor_det(_minor(a, 0, j), q)
               for j in range(len(a))) % q


@pytest.mark.parametrize("n, q", [(1, 5), (2, 3), (2, 5), (2, 13), (3, 3),
                                  (3, 5), (3, 7)])
def test_matrix_kernels_match_definitions(n, q):
    # on random matrices, singular ones among them: det by cofactors,
    # mat_inv as the adjugate over the determinant, mat_mul by a triple loop
    rng = random.Random(n * q)
    for _ in range(300):
        a, b = (tuple(tuple(rng.randrange(q) for _ in range(n))
                      for _ in range(n)) for _ in range(2))
        d = _cofactor_det(a, q)
        assert fc.det(a, q) == d
        assert mat_mul(a, b, q) == _triple_loop_mul(a, b, q)
        if d:
            dinv = pow(d, q - 2, q)
            assert mat_inv(a, q) == tuple(
                tuple((-1) ** (i + j) * _cofactor_det(_minor(a, j, i), q)
                      * dinv % q for j in range(n)) for i in range(n))


def _eliminated_rank(rows, q):
    """Rank over F_q of a list of equal-length rows, by Gaussian
    elimination."""
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


@pytest.mark.parametrize("n, q", [(2, 5), (3, 3)])
def test_class_key_degree_matches_elimination(n, q):
    # the degree of the minimal polynomial is the rank of I, a, ..., a^(n-1)
    degrees = Counter()
    for a in enumerate_gl(n, q):
        powers = [fc.identity(n)]
        while len(powers) < n:
            powers.append(mat_mul(powers[-1], a, q))
        rank = _eliminated_rank([sum(p, ()) for p in powers], q)
        assert fc._class_key(a, q)[1] == rank, a
        degrees[rank] += 1
    # every degree occurs: scalars, and for n = 3 the degree-2 classes
    assert sorted(degrees) == list(range(1, n + 1))


# -- golden raw counts ------------------------------------------------------------
# Raw counts taken from the convolution over every class, before the
# factor before the last was evaluated only where the last orbit reads
# it.  An orbit is an int zeta (central zeta I) or split eigenvalues with
# multiplicities.

GOLDEN = [
    # kind, r or g, orbits, q, n, raw count
    ("nonorientable", 1, [-1], 7, 2, 6),
    ("nonorientable", 2, [-1], 7, 2, 12096),
    ("nonorientable", 3, [-1], 7, 2, 24312960),
    ("orientable", 1, [-1], 7, 2, 12096),
    ("nonorientable", 1, [-1], 11, 2, 10),
    ("orientable", 1, [-1], 13, 2, 314496),
    ("orientable", 2, [-1], 3, 2, 211200),
    ("orientable", 2, [-1], 5, 2, 440094720),
    ("orientable", 2, [-1], 7, 2, 49097664000),
    ("nonorientable", 1, [-1, -1], 7, 2, 294),
    ("orientable", 1, [1, -1], 7, 2, 12096),
    ("nonorientable", 1, [((1, 1), (2, 1)), ((1, 1), (4, 1))], 7, 2, 30912),
    ("nonorientable", 1, [1], 3, 3, 468),
    ("orientable", 1, [1], 3, 3, 269568),
]


@pytest.mark.parametrize("kind, copies, orbits, q, n, raw", GOLDEN)
def test_golden_raw_counts(kind, copies, orbits, q, n, raw):
    orbs = [fc.FqOrbit.central(o, n, q) if isinstance(o, int)
            else fc.FqOrbit.split(o, q) for o in orbits]
    count = (fc.count_nonorientable if kind == "nonorientable"
             else fc.count_orientable)
    assert count(copies, orbs).raw_count == raw


# -- counts against the E-series beyond one central orbit ---------------------


def _first_generic(mus, q):
    """The first generic tuple of orbits, one per row of mus with that row
    as its eigenvalue multiplicities, in lexicographic eigenvalue order."""
    choices = [[fc.FqOrbit.split(list(zip(vals, mu)), q)
                for vals in itertools.permutations(range(1, q), len(mu))]
               for mu in mus]
    return next(list(orbits) for orbits in itertools.product(*choices)
                if cs.is_generic([o.as_angles() for o in orbits])[0])


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize("surface, mus", [
    (cs.nonorientable(1, 1), ((1, 1),)),
    (cs.nonorientable(2, 1), ((1, 1),)),
    (cs.orientable(1, 1), ((1, 1),)),
    (cs.nonorientable(1, 2), ((1, 1), (1, 1))),
    (cs.nonorientable(1, 2), ((2,), (1, 1))),
], ids=["r1-11", "r2-11", "g1-11", "r1-11-11", "r1-2-11"])
def test_split_and_two_orbit_counts_match_eseries(surface, mus, q):
    # no other test compares a count with a multi-row or multi-alphabet HH;
    # at q = 7 the tuples are diag(2, 4), diag(1, 2) with diag(3, 6), and
    # 1*I with diag(2, 4)
    orbits = _first_generic(mus, q)
    series = cs.eseries(surface, mus, [o.as_angles() for o in orbits])
    assert series.generic and not series.half_integer_powers
    if surface.kind == "nonorientable":
        rep = fc.count_nonorientable(surface.r, orbits)
    else:
        rep = fc.count_orientable(surface.g, orbits)
    assert rep.groupoid_count == series.value.eval({"q": Fraction(q)})


# -- element-level reference ------------------------------------------------------
# The counting code this package used before it worked on class functions,
# kept as the oracle for the class-function path: it convolves
# matrix-indexed distributions element by element, at |GL|^2 products.

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


@functools.lru_cache(maxsize=None)
def _gl_with_inverses(n, q):
    return [(g, mat_inv(g, q)) for g in enumerate_gl(n, q)]


@functools.lru_cache(maxsize=None)
def _conjugation_orbit(orbit):
    """The orbit by its definition: g rep g^-1 for every g in GL_n."""
    rep, q = orbit.representative(), orbit.q
    return frozenset(mat_mul(mat_mul(g, rep, q), ginv, q)
                     for g, ginv in _gl_with_inverses(orbit.n, q))


def _finish_with_orbits(dist, orbits, q):
    """Fold in the orbit constraints; the last orbit is solved for rather
    than enumerated (its member is determined by the other factors)."""
    for orbit in orbits[:-1]:
        ind = {m: 1 for m in _conjugation_orbit(orbit)}
        dist = _convolve(dist, ind, q)
    last = _conjugation_orbit(orbits[-1])
    raw = 0
    for m, c in dist.items():
        if mat_inv(m, q) in last:
            raw += c
    return raw


@functools.lru_cache(maxsize=None)
def _base_distribution(kind, n, q):
    return (_dtheta_distribution if kind == "nonorientable"
            else _commutator_distribution)(n, q)


def _surface_distribution(kind, copies, n, q):
    """The element-level distribution of the surface word, before orbits."""
    if copies == 0:
        return {fc.identity(n): 1}
    base = _base_distribution(kind, n, q)
    dist = base
    for _ in range(copies - 1):
        dist = _convolve(dist, base, q)
    return dist


def _oracle_grid():
    """(kind, r or g, orbits, q, n) for n in {1, 2}, q in {3, 5}, r in
    {1, 2, 3}, g in {0, 1, 2}, and every ordered k-tuple (k = 1, 2) of the
    orbits zeta = +1, -1 and, for n = 2, the split orbit of
    test_conjugation_invariance."""
    for n in (1, 2):
        for q in (3, 5):
            orbits = [fc.FqOrbit.central(1, n, q), fc.FqOrbit.central(-1, n, q)]
            if n == 2:
                orbits.append(fc.FqOrbit.split([(1, 1), (2, 1)], q))
            tuples = [list(t) for k in (1, 2)
                      for t in itertools.product(orbits, repeat=k)]
            for kind, copies in [("nonorientable", r) for r in (1, 2, 3)] + [
                    ("orientable", g) for g in (0, 1, 2)]:
                for orbs in tuples:
                    yield kind, copies, orbs, q, n


def test_class_counts_match_element_oracle():
    dists = {}
    cases = 0
    for kind, copies, orbs, q, n in _oracle_grid():
        key = (kind, copies, n, q)
        if key not in dists:
            dists[key] = _surface_distribution(kind, copies, n, q)
        want = _finish_with_orbits(dists[key], orbs, q)
        count = (fc.count_nonorientable if kind == "nonorientable"
                 else fc.count_orientable)
        rep = count(copies, orbs)
        assert rep.raw_count == want, (kind, copies, orbs, q, n)
        cases += 1
    assert cases == 216


def _split_orbits(n, q):
    """Every split orbit of GL_n(F_q): distinct eigenvalues, in increasing
    order, with every composition of n into at least two multiplicities."""
    for k in range(2, n + 1):
        for mults in itertools.product(range(1, n), repeat=k):
            if sum(mults) != n:
                continue
            for vals in itertools.combinations(range(1, q), k):
                yield fc.FqOrbit.split(list(zip(vals, mults)), q)


@pytest.mark.parametrize("n, q", [(2, 3), (2, 5), (2, 7), (2, 11), (2, 13),
                                  (3, 3)])
def test_members_match_conjugation(n, q):
    # members() takes the elements with the representative's class key;
    # the orbit's definition conjugates the representative by all of GL_n
    orbits = list(_split_orbits(n, q))
    assert len(orbits) == {2: (q - 1) * (q - 2) // 2, 3: 2}[n]
    for orbit in orbits:
        assert orbit.members() == _conjugation_orbit(orbit), orbit


@pytest.mark.parametrize("n, q", [(1, 3), (1, 5), (2, 3), (2, 5)])
def test_commutators_match_element_oracle(n, q):
    # on every class, not only those an orbit reads: the class function's
    # value is the element oracle's count summed over the class, divided
    # by the class size
    classes = fc._Classes.of(n, q)
    dist = _base_distribution("orientable", n, q)
    want = {}
    for k, members in classes.members.items():
        total = sum(dist.get(a, 0) for a in members)
        if total:
            assert total % len(members) == 0
            want[k] = total // len(members)
    assert fc._commutators(classes, q, classes.members) == want


@pytest.mark.parametrize("call, error, message", [
    (lambda: fc.FqOrbit.split([(0, 1), (2, 1)], 5), ValueError,
     "eigenvalues must be distinct and nonzero"),
    (lambda: fc.FqOrbit.split([(2, 1), (7, 1)], 5), ValueError,
     "eigenvalues must be distinct and nonzero"),
    (lambda: fc.FqOrbit.central(2, 2, 9).as_angles(), ValueError,
     "q must be prime: 9"),
    # a float would be stored as it is, and a count would then fail on it
    # or count the wrong class: -1.0 % 5 == 4.0
    (lambda: fc.FqOrbit.central(2.5, 2, 5), TypeError, "integer"),
    (lambda: fc.FqOrbit.central(-1.0, 2, 5), TypeError, "integer"),
    (lambda: fc.FqOrbit.central(-1, 2.0, 5), TypeError, "integer"),
    (lambda: fc.FqOrbit.split([(2.0, 1), (3, 1)], 5), TypeError, "integer"),
    (lambda: fc.FqOrbit.split([(2, 1.5), (3, 1)], 5), TypeError, "integer"),
    # an orbit checks its group when it is built: a float q is refused
    # there, not as a TypeError inside the count, and so are the checks
    # that a count makes first
    (lambda: fc.FqOrbit.central(-1, 2, 5.0), TypeError, "integer"),
    (lambda: fc.FqOrbit.split([(2, 1), (3, 1)], 5.0), TypeError, "integer"),
    (lambda: fc.check_group(2, 5.0), TypeError, "integer"),
    (lambda: fc.check_size(2, 1, 5.0, 2), TypeError, "integer"),
    (lambda: fc.FqOrbit.split([(2, 1), (3, 1)], 9), ValueError,
     "q must be prime: 9"),
], ids=["split-zero", "split-repeated", "angles-q9", "central-zeta-2.5",
        "central-zeta-neg1.0", "central-n-2.0", "split-eigenvalue-2.0",
        "split-multiplicity-1.5", "central-q-5.0", "split-q-5.0",
        "check-group-q-5.0", "check-size-q-5.0", "split-q9"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
