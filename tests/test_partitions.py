import math

import pytest

from charstacks import partitions as pt


def test_enumerate_counts():
    assert len(pt.enumerate_partitions(4)) == 5
    assert pt.enumerate_partitions(0) == ((),)
    assert len(pt.enumerate_partitions(6)) == 11


def _p_count(n, maxpart=None):
    # independent recursive partition counter
    if maxpart is None:
        maxpart = n
    if n == 0:
        return 1
    return sum(_p_count(n - k, k) for k in range(1, min(n, maxpart) + 1))


def test_enumerate_matches_recursive_count():
    for n in range(9):
        parts = pt.enumerate_partitions(n)
        assert len(parts) == _p_count(n)
        assert len(set(parts)) == len(parts)
        assert all(sum(lam) == n for lam in parts)


def test_arm_leg():
    # (cell, arm, leg), row by row
    assert pt.hooks(()) == []
    assert pt.hooks((1,)) == [((1, 1), 0, 0)]
    assert pt.hooks((2,)) == [((1, 1), 1, 0), ((1, 2), 0, 0)]
    assert pt.hooks((2, 1)) == [((1, 1), 1, 1), ((1, 2), 0, 0),
                                ((2, 1), 0, 0)]
    assert pt.hooks((3, 1, 1)) == [((1, 1), 2, 2), ((1, 2), 1, 0),
                                   ((1, 3), 0, 0), ((2, 1), 0, 1),
                                   ((3, 1), 0, 0)]


def test_conjugate():
    assert pt.conjugate((2, 1)) == (2, 1)
    assert pt.conjugate((3,)) == (1, 1, 1)
    for n in range(9):
        for lam in pt.enumerate_partitions(n):
            assert pt.conjugate(pt.conjugate(lam)) == lam


def test_statistics():
    assert pt.zlambda((2, 1)) == 2
    assert pt.nstat((2, 1)) == 1
    assert pt.zlambda((1, 1)) == 2


def _count_syt(lam):
    # standard Young tableaux by recursion on removable corner cells
    if not lam:
        return 1
    total = 0
    for i in range(len(lam)):
        if i == len(lam) - 1 or lam[i] > lam[i + 1]:
            smaller = list(lam)
            smaller[i] -= 1
            total += _count_syt(tuple(p for p in smaller if p))
    return total


def test_hook_length_formula():
    for n in range(1, 7):
        for lam in pt.enumerate_partitions(n):
            hooks = [a + l + 1 for _, a, l in pt.hooks(lam)]
            assert _count_syt(lam) == math.factorial(n) // math.prod(hooks)


def test_multipartition_checks():
    assert pt.check_multipartition(((2, 1), (1, 1, 1))) == ((2, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        pt.check_multipartition(())
    with pytest.raises(ValueError):
        pt.check_multipartition(((2,), (1,)))


def test_multipartition_refuses_empty_components():
    for empty in (((),), ((), ())):
        with pytest.raises(ValueError, match="size >= 1"):
            pt.check_multipartition(empty)


def test_non_integer_parts_refused():
    # parts are read as integers, never truncated: (2.5,) is not (2,)
    from charstacks.hlvkernel import hlv_HH

    for call in (lambda: pt.check_partition((2.7, 1)),
                 lambda: pt.check_partition(("2",)),
                 lambda: pt.check_multipartition(((2.0,), (1, 1))),
                 lambda: hlv_HH(((2.5,),), 2)):
        with pytest.raises(TypeError):
            call()
    assert pt.check_partition([3, True]) == (3, 1)


def test_text_roundtrip():
    for lam in ((3, 1), (), (1, 1, 1)):
        assert pt.parse_partition(pt.partition_text(lam)) == lam


@pytest.mark.parametrize("call, message", [
    (lambda: pt.enumerate_partitions(-1), "n must be >= 0"),
], ids=["enumerate-negative"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
