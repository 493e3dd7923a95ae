import itertools

import pytest
from hypothesis import given, strategies as st

from middleorder.parking import (
    TOP,
    all_parking_functions,
    format_parking,
    is_parking_function,
    parking_poset,
    parse_parking,
    pentagon_witness,
    pf_join,
    pf_leq,
    pf_meet,
    validate_parking_function,
)
from middleorder.posets import FinitePoset, pentagon
from middleorder.verify import parking_simulation


def test_membership_examples():
    assert is_parking_function((1, 1, 1))
    assert is_parking_function((3, 1, 1))
    assert is_parking_function((2, 1, 3))
    assert not is_parking_function((2, 2, 3))
    assert not is_parking_function((3, 3, 1))


@pytest.mark.parametrize("n", range(1, 6))
def test_criterion_matches_simulation(n):
    for p in itertools.product(range(1, n + 1), repeat=n):
        assert is_parking_function(p) == parking_simulation(p)


@pytest.mark.parametrize("n", range(1, 8))
def test_counts(n):
    assert len(all_parking_functions(n)) == (n + 1) ** (n - 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_closed_under_rearrangement(n):
    for p in all_parking_functions(n):
        for q in set(itertools.permutations(p)):
            assert is_parking_function(q)


def test_validation():
    assert validate_parking_function([1, 1, 2]) == (1, 1, 2)
    with pytest.raises(ValueError):
        validate_parking_function([2, 2, 3])
    with pytest.raises(ValueError):
        validate_parking_function([0, 1])
    with pytest.raises(ValueError):
        validate_parking_function([])
    with pytest.raises(ValueError):
        all_parking_functions(0)
    with pytest.raises(ValueError):
        all_parking_functions(8)  # its 9^7 parking functions exceed 10!
    with pytest.raises(ValueError):
        parking_poset(8)
    with pytest.raises(ValueError):
        parking_poset(7)  # 8^6 + 1 elements, beyond the poset size limit


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_filters_like_the_predicate(n):
    every = itertools.product(range(1, n + 1), repeat=n)
    assert all_parking_functions(n) == [p for p in every if is_parking_function(p)]


def test_order_operations():
    assert pf_leq((1, 1, 2), (1, 2, 3))
    assert not pf_leq((2, 1, 1), (1, 2, 3))
    assert pf_leq((1, 2, 3), TOP) and not pf_leq(TOP, (1, 2, 3))
    assert pf_meet((3, 1, 1), (1, 2, 3)) == (1, 1, 1)
    assert pf_meet(TOP, (1, 2, 3)) == (1, 2, 3)
    assert pf_join((1, 1, 2), (1, 2, 1)) == (1, 2, 2)
    assert pf_join((3, 1, 1), (1, 1, 3)) is TOP
    assert pf_join(TOP, (1, 1, 1)) is TOP


@pytest.mark.parametrize("n", range(1, 5))
def test_meet_join_are_actual_bounds(n):
    pfs = all_parking_functions(n) + [TOP]
    ups = {p: {u for u in pfs if pf_leq(p, u)} for p in pfs}
    for p in pfs:
        for q in pfs:
            m, j = pf_meet(p, q), pf_join(p, q)
            assert pf_leq(m, p) and pf_leq(m, q)
            assert pf_leq(p, j) and pf_leq(q, j)
            if m is not TOP:
                assert is_parking_function(m) or m is TOP
            # the join is least: any common upper bound dominates it
            assert ups[p] & ups[q] <= ups[j]


@pytest.mark.parametrize("n", range(1, 5))
def test_parking_poset_is_a_lattice(n):
    poset = parking_poset(n)
    assert poset.n == (n + 1) ** (n - 1) + 1
    assert poset.is_lattice()


@pytest.mark.parametrize("n", range(1, 5))
def test_parking_poset_matches_pairwise_comparison(n):
    labels = all_parking_functions(n) + [TOP]
    slow = FinitePoset.from_leq(labels, lambda a, b: a is b or pf_leq(a, b))
    fast = parking_poset(n)
    assert fast.labels == slow.labels
    assert fast._above == slow._above


@pytest.mark.parametrize("n", (3, 4))
def test_parking_lattice_is_not_modular(n):
    poset = parking_poset(n)
    assert not poset.is_distributive()
    assert poset.find_pentagon() is not None


@pytest.mark.parametrize("call", [
    lambda: pf_leq("abc", "abd"),
    lambda: pf_meet((0, 5), (7, 1)),
    lambda: is_parking_function((1, 2.0)),
    lambda: pf_join((1, 2.0), (1, 1)),
], ids=["leq-of-strings", "meet-out-of-range", "float-entry", "join-with-float"])
def test_operations_refuse_what_is_not_a_parking_function(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("n", (3, 4, 5))
def test_pentagon_witness(n):
    bottom, side, low, high, top = pentagon_witness(n)
    sub = FinitePoset.from_leq([bottom, side, low, high, top], pf_leq)
    n5 = pentagon()  # 0 < a < b < 1 and 0 < c < 1
    name = dict(zip((bottom, low, high, side, top), n5.labels))
    assert all(sub.leq_labels(s, t) == n5.leq_labels(name[s], name[t])
               for s in sub.labels for t in sub.labels)
    with pytest.raises(ValueError):
        pentagon_witness(2)


def test_serialization():
    assert format_parking(TOP) == "T"
    assert format_parking((1, 1, 2)) == "1,1,2"
    assert parse_parking("T") is TOP
    assert parse_parking("1,1,2") == (1, 1, 2)
    with pytest.raises(ValueError):
        parse_parking("2,2,3")
    with pytest.raises(ValueError):
        parse_parking("x")


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.just(TOP) | st.lists(st.integers(1, n), min_size=n, max_size=n)
    .map(tuple).filter(is_parking_function)))
def test_parse_parking_inverts_format(p):
    assert parse_parking(format_parking(p)) == p
