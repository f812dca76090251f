import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from charstacks import partitions as pt
from charstacks.exactalg import RatFunc, ONE, ZERO_EXP, Z, W, Q, T
from charstacks.symfunc import (SymFunc, _kostka, _merge, _mobius,
                                _part_assignments, _stored, basis_element,
                                fits, hall_pair_h, plethysm_pr, ple_exp,
                                ple_log)


def one_alphabet(basis, lam, N=None):
    n = sum(lam)
    return basis_element(basis, (lam,), 1, N if N is not None else max(n, 1))


def coeff(f, *lams):
    return f.coefficient(tuple(lams))


def test_p1_squared():
    p1 = one_alphabet("p", (1,), N=2)
    sq = p1 * p1
    assert coeff(sq, (2,)) == ONE
    assert coeff(sq, (1, 1)) == RatFunc(2)


def test_h1_is_m1():
    assert one_alphabet("h", (1,)) == one_alphabet("m", (1,))


def _ssyt_count(shape, content, nvars):
    # semistandard tableaux with given content, enumerated row by row
    cells_total = sum(shape)

    def rec(rows):
        if len(rows) == len(shape):
            used = [0] * nvars
            for row in rows:
                for v in row:
                    used[v - 1] += 1
            return 1 if tuple(used) == content else 0
        i = len(rows)
        count = 0
        for row in itertools.combinations_with_replacement(
                range(1, nvars + 1), shape[i]):
            ok = True
            if i > 0:
                above = rows[i - 1]
                ok = all(row[j] > above[j] for j in range(len(row)))
            if ok:
                count += rec(rows + [list(row)])
        return count

    return rec([])


def test_schur_21_kostka():
    s = one_alphabet("s", (2, 1))
    for lam in pt.enumerate_partitions(3):
        content = tuple(lam) + (0,) * (3 - len(lam))
        k = _ssyt_count((2, 1), content, 3)
        assert coeff(s, lam) == RatFunc(k)
    assert coeff(s, (2, 1)) == ONE
    assert coeff(s, (1, 1, 1)) == RatFunc(2)


def _m_row_by_enumeration(basis, lam):
    """[m_nu] of basis_lam, counted on the monomials of |lam| variables."""
    n = sum(lam)
    padded = {nu: nu + (0,) * (n - len(nu)) for nu in pt.enumerate_partitions(n)}
    if basis == "s":
        return {nu: _ssyt_count(lam, e, n) for nu, e in padded.items()}
    # each part r picks one monomial of p_r, h_r or e_r: a variable to the
    # power r, a multiset of r variables or a set of r variables
    picks = {
        "p": lambda r: [(i,) * r for i in range(n)],
        "h": lambda r: list(
            itertools.combinations_with_replacement(range(n), r)),
        "e": lambda r: list(itertools.combinations(range(n), r)),
    }[basis]
    counts = Counter()
    for choice in itertools.product(*(picks(r) for r in lam)):
        exps = [0] * n
        for monomial in choice:
            for i in monomial:
                exps[i] += 1
        counts[tuple(exps)] += 1
    return {nu: counts[e] for nu, e in padded.items()}


def _is_int(c):
    """Whether the RatFunc c is an integer constant."""
    p = c.as_mpoly()
    return p is not None and set(p.terms) <= {ZERO_EXP} and all(
        type(x) is int for x in p.terms.values())


def test_basis_tables_against_enumeration():
    for n in range(1, 6):
        for lam in pt.enumerate_partitions(n):
            for basis in ("p", "h", "e", "s"):
                table = basis_element(basis, (lam,), 1, n).to_basis("m")
                want = _m_row_by_enumeration(basis, lam)
                assert table == {(nu,): RatFunc(c)
                                 for nu, c in want.items() if c}, (basis, lam)
                assert all(map(_is_int, table.values()))


def test_m1_times_m1():
    m1 = one_alphabet("m", (1,), N=2)
    prod = m1 * m1
    assert coeff(prod, (2,)) == ONE
    assert coeff(prod, (1, 1)) == RatFunc(2)


def test_mul_identity():
    f = one_alphabet("s", (2, 1))
    assert f * SymFunc.one(1, f.N) == f


def test_h1_cubed_multinomial():
    h1 = one_alphabet("h", (1,), N=3)
    cube = h1 * h1 * h1
    assert coeff(cube, (3,)) == ONE
    assert coeff(cube, (2, 1)) == RatFunc(3)
    assert coeff(cube, (1, 1, 1)) == RatFunc(6)


def test_hall_pair_duality_examples():
    f = basis_element("m", ((2,), (1, 1)), 2, 2)
    assert hall_pair_h(f, ((2,), (1, 1))) == ONE
    assert hall_pair_h(basis_element("s", ((1,),), 1, 1), ((1,),)) == ONE
    assert hall_pair_h(one_alphabet("p", (2,)), ((2,),)) == ONE


@pytest.mark.parametrize("key", [((2,),), ((2,), (1, 1), (1,))])
def test_key_with_wrong_number_of_partitions_refused(key):
    f = basis_element("m", ((2,), (1, 1)), 2, 2)
    with pytest.raises(ValueError, match="one partition per alphabet"):
        f.coefficient(key)
    with pytest.raises(ValueError, match="one partition per alphabet"):
        hall_pair_h(f, key)


def test_hall_pair_duality_exhaustive():
    for n in range(1, 5):
        for lam in pt.enumerate_partitions(n):
            f = one_alphabet("m", lam, N=n)
            for mu in pt.enumerate_partitions(n):
                expected = ONE if mu == lam else RatFunc(0)
                assert hall_pair_h(f, (mu,)) == expected


def test_m_view_readers_agree():
    # coefficient, hall_pair_h and to_basis("m") all read the m view
    f = (basis_element("s", ((2, 1), (1, 1)), 2, 3).scale(Q)
         + basis_element("s", ((1,), (2,)), 2, 3).scale(T))
    m = f.to_basis("m")
    parts = [lam for n in range(4) for lam in pt.enumerate_partitions(n)]
    for key in itertools.product(parts, repeat=2):
        want = m.get(key, RatFunc(0))
        assert f.coefficient(key) == want, key
        assert hall_pair_h(f, key) == want, key
    assert m[((1, 1, 1), (1, 1))] == RatFunc(2) * Q
    assert m[((1,), (1, 1))] == T


def test_basis_roundtrips():
    for n in range(1, 6):
        for lam in pt.enumerate_partitions(n):
            f = one_alphabet("m", lam, N=n)
            for basis in ("p", "s", "h", "e"):
                table = f.to_basis(basis)
                back = SymFunc.from_basis(basis, table, 1, n)
                assert back == f


def test_coefficient_matches_m_view_randomized():
    # coefficient converts only the keys that can fill the target row
    rng = random.Random(23)
    for k, N in ((1, 4), (2, 3), (3, 2)):
        parts = [lam for n in range(N + 1)
                 for lam in pt.enumerate_partitions(n)]
        for _ in range(4):
            f = ple_exp(_random_symfunc(rng, k, N))
            m = f.to_basis("m")
            for key in itertools.product(parts, repeat=k):
                assert f.coefficient(key) == m.get(key, RatFunc(0)), key


def test_m_to_stored_rows_are_integers():
    # the P_lam coefficient of m_mu is <m_mu, p_lam> = [h_mu] p_lam
    for n in range(9):
        for lam in pt.enumerate_partitions(n):
            f = basis_element("m", (lam,), 1, n)
            assert all(map(_is_int, f.coeffs.values())), lam


def test_stored_rows_are_p_rows_over_z():
    for n in range(1, 7):
        for lam in pt.enumerate_partitions(n):
            z = pt.zlambda(lam)
            stored = SymFunc(1, n, {(lam,): ONE})
            assert stored.to_basis("m") == {
                key: c * Fraction(1, z)
                for key, c in one_alphabet("p", lam).to_basis("m").items()}


def _invert(matrix):
    """Inverse of a square Fraction matrix (Gauss-Jordan)."""
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def test_stored_rows_match_inverted_matrices():
    # the m rows solved by triangularity against the inverse of the matrix
    # [m_nu] P_lam = R(lam, nu) / z_lam, and the s rows against that
    # inverse with the Kostka matrix composed in
    for n in range(9):
        parts = pt.enumerate_partitions(n)
        inv = _invert([[Fraction(_part_assignments(lam, nu), pt.zlambda(lam))
                        for nu in parts] for lam in parts])
        for i, mu in enumerate(parts):
            assert _stored("m", mu) == {
                lam: c for lam, c in zip(parts, inv[i]) if c}, mu
            s_row = [sum(_kostka(mu, kappa) * inv[j][col]
                         for j, kappa in enumerate(parts))
                     for col in range(len(parts))]
            assert _stored("s", mu) == {
                lam: c for lam, c in zip(parts, s_row) if c}, mu


def test_merge_factor_is_product_of_binomials():
    parts = [lam for n in range(7) for lam in pt.enumerate_partitions(n)]
    for a, b in itertools.product(parts, repeat=2):
        union, factor = _merge(a, b)
        assert union == tuple(sorted(a + b, reverse=True))
        ma, mb = Counter(a), Counter(b)
        assert factor == math.prod(math.comb(ma[i] + mb[i], ma[i])
                                   for i in set(a) | set(b)), (a, b)


def test_p_product_merges_keys():
    parts = [lam for n in range(1, 5) for lam in pt.enumerate_partitions(n)]
    for a, b in itertools.combinations_with_replacement(parts, 2):
        N = sum(a) + sum(b)
        assert one_alphabet("p", a, N) * one_alphabet("p", b, N) == \
            one_alphabet("p", tuple(sorted(a + b, reverse=True)), N)


def test_p_view_roundtrips_basis_element():
    for n in range(7):
        for lam in pt.enumerate_partitions(n):
            f = one_alphabet("p", lam)
            assert f.to_basis("p") == {(lam,): ONE}
            assert f.coeffs == {(lam,): RatFunc(pt.zlambda(lam))}
    key = ((2, 1), (1, 1))
    f = basis_element("p", key, 2, ((2, 1), (1, 1)))
    assert f.to_basis("p") == {key: ONE}


def test_plethysm_pr():
    m1 = one_alphabet("m", (1,), N=2)
    assert plethysm_pr(2, m1) == one_alphabet("m", (2,), N=2)
    zf = m1.scale(Z)
    assert plethysm_pr(2, zf) == one_alphabet("m", (2,), N=2).scale(Z * Z)
    f2 = basis_element("p", ((1,), (1,)), 2, 2)
    assert plethysm_pr(2, f2) == basis_element("p", ((2,), (2,)), 2, 2)


def _random_symfunc(rng, k, N, zero_const=True):
    f = SymFunc.zero(k, N)
    keys = [tuple(parts) for parts in itertools.product(
        *[sum((list(pt.enumerate_partitions(d)) for d in range(N + 1)), [])
          for _ in range(k)])]
    for key in rng.sample(keys, min(4, len(keys))):
        if zero_const and all(not p for p in key):
            continue
        c = RatFunc(Fraction(rng.randint(-2, 2)))
        if rng.random() < 0.5:
            c = c * Q
        f = f + basis_element("m", key, k, N).scale(c)
    return f


def test_plethysm_multiplicative_randomized():
    rng = random.Random(5)
    for _ in range(5):
        f = _random_symfunc(rng, 1, 2)
        g = _random_symfunc(rng, 1, 2)
        lhs = plethysm_pr(2, (f * g))
        rhs = plethysm_pr(2, f) * plethysm_pr(2, g)
        assert lhs == rhs


def test_pr_compose():
    f = one_alphabet("p", (1,), N=6)
    assert plethysm_pr(2, plethysm_pr(3, f)) == plethysm_pr(6, f)


def test_pr_of_p_is_p():
    # p_r o p_lam = p_(r lam); the stored basis scales by r^len(lam)
    for n in range(1, 5):
        for lam in pt.enumerate_partitions(n):
            for r in (2, 3):
                rlam = tuple(r * part for part in lam)
                N = sum(rlam)
                assert plethysm_pr(r, one_alphabet("p", lam, N)) == \
                    one_alphabet("p", rlam, N)


def test_exp_of_zero():
    assert ple_exp(SymFunc.zero(1, 3)) == SymFunc.one(1, 3)


def test_exp_p1_is_h_series():
    f = ple_exp(one_alphabet("p", (1,), N=3))
    expected = SymFunc.one(1, 3)
    for n in range(1, 4):
        expected = expected + one_alphabet("h", (n,), N=3)
    assert f == expected


def test_exp_scaled_degree_two():
    f = ple_exp(one_alphabet("p", (1,), N=2).scale(T))
    assert coeff(f, (2,)) == T * T


def test_exp_rejects_constant():
    with pytest.raises(ValueError):
        ple_exp(SymFunc.one(1, 2))


def test_log_of_one():
    assert ple_log(SymFunc.one(1, 3)) == SymFunc.zero(1, 3)


def test_log_linear_term():
    c = (Z - W) / (Q - ONE)
    omega = SymFunc.one(1, 2) + one_alphabet("m", (1,), N=2).scale(c)
    logf = ple_log(omega)
    assert coeff(logf, (1,)) == c


def test_exp_log_inversion_randomized():
    rng = random.Random(9)
    for k in (1, 2):
        for _ in range(3):
            f = _random_symfunc(rng, k, 3 if k == 1 else 2)
            assert ple_log(ple_exp(f)) == f
    omega = SymFunc.one(1, 3) + _random_symfunc(rng, 1, 3)
    assert ple_exp(ple_log(omega)) == omega


def test_text_roundtrip():
    f = basis_element("s", ((2, 1), (1, 1, 1)), 2, 3).scale(Q * T)
    assert SymFunc.parse(f.text(), 2, 3) == f


# -- truncation at a bound of several rows -----------------------------------

def _fits_by_assignment(lam, rows):
    """Try every way to put each part of lam into one of the rows."""
    for rows_of_parts in itertools.product(range(len(rows)), repeat=len(lam)):
        load = [0] * len(rows)
        for part, j in zip(lam, rows_of_parts):
            load[j] += part
        if all(x <= cap for x, cap in zip(load, rows)):
            return True
    return False


def test_fits_matches_assignment_oracle():
    parts = [lam for n in range(7) for lam in pt.enumerate_partitions(n)]
    for lam in parts:
        for rows in parts:
            assert fits(lam, rows) == _fits_by_assignment(lam, rows), \
                (lam, rows)
        assert fits(lam, (6,)) == (sum(lam) <= 6)


def _restrict(f, bound):
    """f read in the quotient by the keys that do not fit bound."""
    return SymFunc(f.k, bound, {key: c for key, c in f.coeffs.items()
                                if all(map(fits, key, bound))})


def test_bound_is_an_ideal_randomized():
    # reading in the quotient commutes with every ring operation
    rng = random.Random(19)
    for bound in (((2, 1),), ((1, 1, 1),), ((2, 1), (1, 1)), ((2,), (1, 1))):
        k, N = len(bound), max(map(sum, bound))
        for _ in range(3):
            f = _random_symfunc(rng, k, N)
            g = _random_symfunc(rng, k, N)
            fb, gb = _restrict(f, bound), _restrict(g, bound)
            assert _restrict(f * g, bound) == fb * gb
            assert _restrict(plethysm_pr(2, f), bound) == plethysm_pr(2, fb)
            assert _restrict(ple_exp(f), bound) == ple_exp(fb)
            assert ple_log(ple_exp(fb)) == fb
            assert {key: c for key, c in f.to_basis("m").items()
                    if all(map(fits, key, bound))} == fb.to_basis("m")


def test_key_outside_bound_refused():
    f = basis_element("m", ((2, 1),), 1, ((2, 1),))
    assert f.coefficient(((2, 1),)) == ONE
    for key in (((3,),), ((1, 1, 1, 1),), ((2, 2),)):
        with pytest.raises(ValueError, match="does not fit"):
            f.coefficient(key)
        with pytest.raises(ValueError, match="does not fit"):
            hall_pair_h(f, key)
        with pytest.raises(ValueError, match="does not fit"):
            basis_element("m", key, 1, ((2, 1),))


@pytest.mark.parametrize("basis", ["s", "h", "e"])
def test_non_row_bound_refuses_views(basis):
    f = basis_element("p", ((1, 1), (2,)), 2, ((1, 1), (2,)))
    with pytest.raises(ValueError, match="bound of rows"):
        f.to_basis(basis)
    with pytest.raises(ValueError, match="bound of rows"):
        SymFunc.from_basis(basis, {((1, 1), (2,)): ONE}, 2, ((1, 1), (2,)))
    assert f.to_basis("m")[((1, 1), (2,))] == RatFunc(2)


def test_mobius_matches_factorisation():
    for n in range(1, 61):
        primes = [p for p in range(2, n + 1)
                  if n % p == 0 and all(p % d for d in range(2, p))]
        squarefree = all(n % (p * p) for p in primes)
        expected = (-1) ** len(primes) if squarefree else 0
        assert _mobius(n) == expected, n


def test_eq_says_false():
    key2, key11 = ((2,),), ((1, 1),)
    f = SymFunc(1, 2, {key2: Z, key11: ONE})
    values = [
        SymFunc(1, 2, {key2: Z, key11: RatFunc(2)}),  # one coefficient
        SymFunc(1, 2, {key2: Z}),  # a key fewer
        SymFunc(1, 2, {key2: Z, key11: ONE, ((1,),): ONE}),  # a key more
        SymFunc(1, 3, {key2: Z, key11: ONE}),  # another N
        SymFunc(1, ((2, 1),), {key2: Z, key11: ONE}),  # another bound
        SymFunc(2, 2, {((2,), ()): Z, ((1, 1), ()): ONE}),  # another k
    ]
    for g in values:
        assert not f == g and not g == f, g
        assert f != g and g != f, g
    # equal values, one stored unreduced, and one value against itself
    same = SymFunc(1, 2, {key2: RatFunc(2 * Z.num, 2), key11: ONE})
    assert f == same and not f != same
    for g in values:
        assert g == g
    for other in (ONE, 1, Z, f.coeffs, "f"):
        assert not f == other and f != other
    assert not SymFunc.one(1, 2) == ONE and not SymFunc.zero(1, 2) == 0


def test_arithmetic_across_bounds_refused():
    f = SymFunc.one(1, 2)
    for g in (SymFunc.one(1, 3), SymFunc.one(2, 2), SymFunc.one(1, ((1, 1),))):
        for op in (lambda a, b: a + b, lambda a, b: a * b):
            with pytest.raises(ValueError, match="incompatible alphabets"):
                op(f, g)
            with pytest.raises(ValueError, match="incompatible alphabets"):
                op(g, f)


def test_inexact_operands_refused():
    # the operators answer only SymFuncs and exact scalars, so Python
    # raises TypeError for anything else
    f = basis_element("m", ((1,),), 1, 2)
    for call in (lambda: f + 1, lambda: 1 + f, lambda: f - 1,
                 lambda: f * 0.5, lambda: 0.5 * f, lambda: f * "a"):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(TypeError, match="not an exact scalar: 0.5"):
        f.scale(0.5)
    assert f * 2 == 2 * f == f.scale(2) == f + f
    assert f * Z == Z * f == f * Z.num == Z.num * f == f.scale(Z)


@pytest.mark.parametrize("call, message", [
    (lambda: basis_element("x", ((1,),), 1, 1), "unknown basis 'x'"),
    (lambda: plethysm_pr(0, SymFunc.one(1, 2)), "r must be >= 1"),
    (lambda: ple_log(SymFunc.one(1, 2).scale(2)),
     "ple_log needs constant term exactly 1"),
    (lambda: ple_log(SymFunc.zero(1, 2)),
     "ple_log needs constant term exactly 1"),
    (lambda: SymFunc(2, ((2,),)), "one bound partition per alphabet"),
    (lambda: SymFunc(1, ((2,), (1,))), "one bound partition per alphabet"),
    (lambda: basis_element("m", ((1,),), 2, 2),
     "one partition per alphabet required"),
    (lambda: basis_element("m", ((1,), (1,)), 1, 2),
     "one partition per alphabet required"),
], ids=["basis", "plethysm-r0", "log-constant-2", "log-constant-0",
        "bound-too-few", "bound-too-many", "element-too-few",
        "element-too-many"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
