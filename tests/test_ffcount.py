import functools
import itertools
import random
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
            rep = fc.count_nonorientable(r, [orb], q, 1)
            assert rep.raw_count == (q - 1) ** r
            assert rep.groupoid_count == Fraction((q - 1) ** (r - 1))
            assert rep.groupoid_count * rep.gl_order == rep.raw_count


def test_orientable_n1_closed_form():
    for q in (3, 5, 7, 11, 13):
        for g in (1, 2):
            orb = fc.FqOrbit.central(1, 1, q)
            rep = fc.count_orientable(g, [orb], q, 1)
            assert rep.groupoid_count == Fraction((q - 1) ** (2 * g - 1))


def test_nonorientable_flagship():
    orb = fc.FqOrbit.central(-1, 2, 3)
    rep = fc.count_nonorientable(2, [orb], 3, 2,
                                 formula_value=Fraction(2))
    assert rep.groupoid_count == 2 and rep.match


def test_nonorientable_nongeneric_orbit():
    # zeta = +1 is non-generic; the formula value q-1 does not apply
    orb = fc.FqOrbit.central(1, 2, 3)
    assert not cs.is_generic([orb.as_angles(3)])[0]
    rep = fc.count_nonorientable(2, [orb], 3, 2)
    assert rep.groupoid_count != 2


def test_orientable_flagship():
    orb = fc.FqOrbit.central(-1, 2, 3)
    rep = fc.count_orientable(1, [orb], 3, 2, formula_value=Fraction(2))
    assert rep.groupoid_count == 2 and rep.match


def test_conjugation_invariance():
    # counting against a conjugated split orbit gives the same raw count
    q = 3
    orb = fc.FqOrbit.split([(1, 1), (2, 1)], q)
    rep1 = fc.count_nonorientable(1, [orb], q, 2)
    members = orb.members(q)
    g = next(iter(fc.enumerate_gl(2, q)))
    conj = {fc.mat_mul(fc.mat_mul(g, m, q), fc.mat_inv(g, q), q)
            for m in members}
    assert conj == members
    assert rep1.groupoid_count * rep1.gl_order == rep1.raw_count


def test_genericity_finite_field():
    for zeta, generic in ((-1, True), (1, False)):
        orb = fc.FqOrbit.central(zeta, 2, 5)
        assert cs.is_generic([orb.as_angles(5)])[0] == generic
    # inverse pair (2, 3) over F_5: 2 * 3 = 1, so the k=2 tuple is degenerate
    pair = fc.FqOrbit.split([(2, 1), (3, 1)], 5)
    assert not cs.is_generic([o.as_angles(5) for o in (pair, pair)])[0]


def test_genericity_finite_field_determinant():
    # over F_7, 2 has order 3: 2*I_1 has determinant 2 != 1, and 2*I_3 is
    # generic (2^3 = 1, and 2, 4 != 1)
    for zeta, n, generic in ((2, 1, False), (2, 3, True), (-1, 3, False)):
        orb = fc.FqOrbit.central(zeta, n, 7)
        assert cs.is_generic([orb.as_angles(7)])[0] == generic


def test_cost_cap():
    orb = fc.FqOrbit.central(-1, 3, 13)
    with pytest.raises(fc.EnumerationTooLarge):
        fc.count_nonorientable(2, [orb], 13, 3)


def test_nan_cost_cap_refused():
    # est > nan is never true: a NaN cap must not switch the cap off
    with pytest.raises(ValueError, match="cost cap") as exc:
        fc.check_size(300, 1, 13, 2, float("nan"))
    assert not isinstance(exc.value, fc.EnumerationTooLarge)


@pytest.mark.parametrize("n", [0, -1, 4])
def test_group_range_refused(n):
    for check in (lambda: fc.check_size(2, 1, 5, n),
                  lambda: next(enumerate_gl(n, 5))):
        with pytest.raises(ValueError, match="n <= 3"):
            check()


def test_cost_model():
    # a step costs at most q^n class representatives times |GL| products
    assert fc._estimate_cost(2, 13, 2 + 1) <= fc.DEFAULT_COST_CAP
    assert fc._estimate_cost(3, 13, 2 + 1) > fc.DEFAULT_COST_CAP


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
                                  (2, 7)])
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
        got = classes.convolve({k1: 1}, {k2: 1}, q)
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
    split = fc.FqOrbit.split([(1, 1), (2, 1)], q).representative(q)
    key = classes.key[split]
    # one element of a class of q(q+1) elements
    with pytest.raises(ValueError, match="not a class function"):
        classes.class_function({key: 1})
    assert classes.class_function({key: q * (q + 1)}) == {key: 1}


def test_report_json():
    import json
    orb = fc.FqOrbit.central(-1, 2, 3)
    rep = fc.count_nonorientable(2, [orb], 3, 2, formula_value=Fraction(2))
    data = json.loads(rep.to_json())
    assert data["raw_count"] == rep.raw_count
    assert data["groupoid_count"] == "2"
    assert data["match"] is True


def test_report_json_without_formula():
    import json
    rep = fc.count_orientable(1, [fc.FqOrbit.central(-1, 2, 3)], 3, 2)
    data = json.loads(rep.to_json())
    assert data["formula_value"] is None and data["match"] is None
    assert data["surface"] == {"kind": "orientable", "g": 1, "k": 1}


def test_count_surface_refused():
    # the surface record comes from SurfaceSpec, which also validates it
    orb = fc.FqOrbit.central(-1, 2, 3)
    with pytest.raises(ValueError, match="nonorientable surface needs r >= 1"):
        fc.count_nonorientable(0, [orb], 3, 2)
    with pytest.raises(ValueError, match="k must be >= 1"):
        fc.count_orientable(1, [], 3, 2)


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
        want = _finish_with_orbits(dists[key], orbs, q, n)
        count = (fc.count_nonorientable if kind == "nonorientable"
                 else fc.count_orientable)
        rep = count(copies, orbs, q, n)
        assert rep.raw_count == want, (kind, copies, orbs, q, n)
        cases += 1
    assert cases == 216
