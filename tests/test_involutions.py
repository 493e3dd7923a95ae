import pytest
from hypothesis import given, settings, strategies as st

from middleorder import involutions, permutations
from middleorder.involutions import (
    all_involutions,
    clusters,
    involution_count,
    involution_poset,
    involution_seq_check,
    is_slow_climbing,
    maximal_slow_climbing_below,
    mobius_involution_ideal,
    slow_climb_decompose,
)
from middleorder.orders import middle_leq
from middleorder.permutations import (
    all_inversion_sequences,
    all_permutations,
    from_inversion_sequence,
    identity,
    inversion_sequence,
    is_involution,
    long_element,
)
from middleorder.verify import clusters_by_definition

# cover pairs of the involution subposet for n = 4, written as words
I4_EDGES = {
    ("1234", "2134"), ("1234", "1324"), ("1234", "1243"),
    ("2134", "3214"), ("2134", "2143"),
    ("1324", "3214"), ("1324", "1432"),
    ("1243", "2143"), ("1243", "1432"),
    ("2143", "4231"),
    ("1432", "4231"), ("1432", "3412"),
    ("3214", "4321"),
    ("3412", "4321"),
    ("4231", "4321"),
}


def word(w):
    return "".join(str(v) for v in w)


@pytest.mark.parametrize("n", range(1, 9))
def test_involution_counts(n):
    assert len(all_involutions(n)) == involution_count(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_generated_involutions_equal_the_filter(n):
    assert all_involutions(n) == tuple(w for w in all_permutations(n) if is_involution(w))


def test_all_involutions_keeps_nothing_between_calls():
    first = all_involutions(5)
    assert all_involutions(5) is not first
    assert all_involutions(5) == first


def test_all_involutions_rejects_size_zero():
    with pytest.raises(ValueError):
        all_involutions(0)


def test_involution_enumeration_stops_at_ten_factorial():
    assert involution_count(14) < 3628800 < involution_count(15)
    with pytest.raises(ValueError, match="exceed 10!"):
        all_involutions(15)
    with pytest.raises(ValueError, match="exceed 8,192"):
        maximal_slow_climbing_below((2, 1) + tuple(range(3, 16)))


def test_count_values():
    assert [involution_count(n) for n in range(1, 9)] == [1, 2, 4, 10, 26, 76, 232, 764]


def test_long_inputs_do_not_recurse():
    assert involution_seq_check((0,) * 3000)
    expected = [1, 1]
    for m in range(2, 3001):
        expected.append(expected[m - 1] + (m - 1) * expected[m - 2])
    assert involution_count(3000) == expected[3000]


@pytest.mark.parametrize("n", range(1, 8))
def test_seq_check_matches_brute_force(n):
    # The public test, the core it wraps, and the decoded word.
    for x in all_inversion_sequences(n):
        assert (involution_seq_check(x) == involutions._seq_check(x)
                == is_involution(from_inversion_sequence(x)))


def test_slow_climbing():
    assert is_slow_climbing((0, 1, 2, 0, 1))
    assert is_slow_climbing((0, 0, 0))
    assert not is_slow_climbing((0, 0, 2))
    assert not is_slow_climbing((0, 1, 0, 3))


def test_slow_climb_decompose():
    assert slow_climb_decompose((0, 1, 2, 0, 1)) == [(0, 1, 2), (0, 1)]
    assert slow_climb_decompose((0,)) == [(0,)]
    with pytest.raises(ValueError):
        slow_climb_decompose((0, 0, 2))  # not slow-climbing
    with pytest.raises(ValueError):
        slow_climb_decompose((0, 1, 1))  # not an involution sequence


@pytest.mark.parametrize("n", range(1, 8))
def test_slow_climbing_involutions_decompose(n):
    for w in all_involutions(n):
        x = inversion_sequence(w)
        if is_slow_climbing(x):
            blocks = slow_climb_decompose(x)
            assert tuple(v for b in blocks for v in b) == x
            for b in blocks:
                assert b == tuple(range(len(b)))


def test_clusters():
    assert clusters((0, 0, 0)) == [(1, 1), (2, 2), (3, 3)]
    assert clusters((0, 1, 2)) == [(1, 3)]
    assert clusters((0, 1, 0, 1)) == [(1, 2), (3, 4)]
    # overlapping clusters are possible
    assert clusters((0, 1, 1, 0)) == [(1, 2), (2, 3), (4, 4)]


@pytest.mark.parametrize("n", range(1, 7))
def test_clusters_match_the_definition(n):
    for x in all_inversion_sequences(n):
        assert clusters(x) == clusters_by_definition(x)


@settings(max_examples=40)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(*(st.integers(0, i) for i in range(n)))))
def test_clusters_match_the_definition_on_long_sequences(x):
    assert clusters(x) == clusters_by_definition(x)


@pytest.mark.parametrize("n", range(1, 7))
def test_clusters_cover_everything(n):
    for x in all_inversion_sequences(n):
        covered = set()
        for a, b in clusters(x):
            assert all(x[a + j - 1] >= j for j in range(b - a + 1))
            covered.update(range(a, b + 1))
        assert covered == set(range(1, n + 1))


def test_mobius_involution_values():
    assert mobius_involution_ideal(identity(4)) == 1
    assert mobius_involution_ideal((2, 1, 3, 4)) == -1
    assert mobius_involution_ideal((2, 1, 4, 3)) == 1
    # (0,1,2) is slow-climbing with two nonzero entries
    assert mobius_involution_ideal((3, 2, 1)) == 1
    # (0,0,2) jumps, so the ideal Moebius vanishes
    assert mobius_involution_ideal((1, 3, 2)) == -1
    assert mobius_involution_ideal((3, 4, 1, 2)) == 0
    with pytest.raises(ValueError):
        mobius_involution_ideal((2, 3, 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_mobius_against_oracle(n):
    poset = involution_poset(n)
    bottom = poset.index_of(identity(n))
    for i, w in enumerate(poset.labels):
        assert mobius_involution_ideal(w) == poset.mobius(bottom, i)


def test_maximal_slow_climbing_below():
    for n in range(2, 7):
        for w in all_involutions(n):
            maximal = maximal_slow_climbing_below(w)
            assert maximal
            for v in maximal:
                assert middle_leq(v, w)
                assert is_slow_climbing(inversion_sequence(v))
            for a in maximal:
                for b in maximal:
                    assert a == b or not middle_leq(a, b)
    with pytest.raises(ValueError):
        maximal_slow_climbing_below((2, 3, 1))


def test_maximal_slow_climbing_below_at_the_largest_size():
    # Without enumerating the 2,390,480 involutions of size 14.
    assert maximal_slow_climbing_below(long_element(14)) == [long_element(14)]
    assert maximal_slow_climbing_below(identity(14)) == [identity(14)]
    w = (2, 1) + tuple(range(3, 15))
    assert maximal_slow_climbing_below(w) == [w]


def test_involution_queries_validate_their_argument_once(monkeypatch):
    w = (2, 1, 4, 3)
    seen = []
    real = permutations.validate_permutation

    def counting(word):
        seen.append(tuple(word))
        return real(word)

    monkeypatch.setattr(permutations, "validate_permutation", counting)
    monkeypatch.setattr(involutions, "validate_permutation", counting)
    assert mobius_involution_ideal(w) == 1
    assert seen == [w]
    seen.clear()
    assert maximal_slow_climbing_below(w) == [w]
    assert seen == [w]


def test_involution_poset_n4_golden():
    poset = involution_poset(4)
    assert poset.n == 10
    assert {(word(a), word(b)) for a, b in poset.cover_labels()} == I4_EDGES


def test_involution_poset_is_not_well_behaved():
    poset = involution_poset(4)
    graded, _ = poset.is_graded()
    assert not graded
    assert not poset.is_lattice()
