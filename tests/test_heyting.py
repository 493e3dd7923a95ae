import itertools

import pytest
from hypothesis import given, strategies as st

from middleorder.heyting import (
    is_regular,
    pseudocomplement,
    regular_elements,
    regular_subposet,
    relative_pseudocomplement,
)
from middleorder.orders import meet, middle_leq
from middleorder.permutations import (
    all_permutations,
    avoids_classical,
    identity,
    inversion_sequence,
    long_element,
)
from middleorder.verify import pseudocomplement_by_listing

perms = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(tuple)


def test_worked_example():
    v = (3, 6, 1, 5, 9, 2, 7, 8, 4)
    w = (6, 1, 4, 9, 2, 8, 5, 3, 7)
    assert relative_pseudocomplement(v, w) == (9, 8, 6, 4, 2, 1, 5, 3, 7)
    assert pseudocomplement(v) == (4, 2, 1, 3, 5, 6, 7, 8, 9)


def test_extreme_values():
    n = 5
    assert pseudocomplement(identity(n)) == long_element(n)
    assert pseudocomplement(long_element(n)) == identity(n)
    # w ~> w and v ~> top are always the top
    for v in all_permutations(3):
        assert relative_pseudocomplement(v, v) == long_element(3)
        assert relative_pseudocomplement(v, long_element(3)) == long_element(3)


@pytest.mark.parametrize("n", range(1, 5))
def test_adjunction_over_all_triples(n):
    for v in all_permutations(n):
        for w in all_permutations(n):
            arrow = relative_pseudocomplement(v, w)
            for z in all_permutations(n):
                assert middle_leq(meet(v, z), w) == middle_leq(z, arrow)


@pytest.mark.parametrize("n", range(1, 5))
def test_arrow_is_the_maximum(n):
    for v in all_permutations(n):
        for w in all_permutations(n):
            arrow = relative_pseudocomplement(v, w)
            best = [z for z in all_permutations(n) if middle_leq(meet(v, z), w)]
            assert arrow in best
            assert all(middle_leq(z, arrow) for z in best)


@given(perms)
def test_pseudocomplement_routes_agree(w):
    assert pseudocomplement(w) == pseudocomplement_by_listing(w)


@given(perms)
def test_double_negation_inflates(w):
    assert middle_leq(w, pseudocomplement(pseudocomplement(w)))


@given(perms)
def test_triple_negation_collapses(w):
    neg = pseudocomplement(w)
    assert pseudocomplement(pseudocomplement(neg)) == neg


@pytest.mark.parametrize("n", range(1, 7))
def test_regular_elements(n):
    regs = regular_elements(n)
    assert len(regs) == 2 ** (n - 1)
    expected = {
        w for w in all_permutations(n)
        if avoids_classical(w, (1, 3, 2)) and avoids_classical(w, (2, 3, 1))
    }
    assert set(regs) == expected
    for w in regs:
        assert is_regular(w)
        assert pseudocomplement(pseudocomplement(w)) == w


@pytest.mark.parametrize("n", range(1, 6))
def test_regular_subposet_is_boolean(n):
    # w -> {i : x_i != 0} carries the regular elements onto the subsets of
    # {2..n}, ordered by inclusion.
    sub = regular_subposet(n)
    supports = [frozenset(i for i, x in enumerate(inversion_sequence(w), start=1) if x)
                for w in sub.labels]
    subsets = {frozenset(s) for r in range(n) for s in itertools.combinations(range(2, n + 1), r)}
    assert len(supports) == len(subsets) and set(supports) == subsets
    assert all(sub.leq(i, j) == (a <= b)
               for i, a in enumerate(supports) for j, b in enumerate(supports))


def test_regular_elements_refuse_more_than_ten_factorial():
    for n in (0, 23):
        with pytest.raises(ValueError):
            regular_elements(n)


def test_is_regular_examples():
    assert is_regular((3, 2, 1))
    assert is_regular((1, 2, 3))
    assert not is_regular((1, 3, 2))
    assert not is_regular((2, 3, 1))
