import itertools
import random

import pytest
from hypothesis import given, strategies as st

from middleorder.permutations import (
    _DECODE_RUNS_FROM,
    _RUN_BITS,
    MeshPattern,
    all_inversion_sequences,
    all_permutations,
    avoids_classical,
    cycle_count,
    cycles,
    foata_image,
    format_inversion_sequence,
    format_permutation,
    from_inversion_sequence,
    identity,
    inversion_sequence,
    is_involution,
    long_element,
    mesh_contains,
    parse_inversion_sequence,
    parse_permutation,
    right_to_left_minima,
    validate_inversion_sequence,
    validate_permutation,
)
from middleorder.verify import inversion_sequence_by_counting, round_trip_failures

perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(tuple)
large_perms = st.integers(min_value=1, max_value=300).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(tuple)


def test_worked_example():
    assert inversion_sequence((4, 1, 5, 6, 2, 3)) == (0, 0, 0, 3, 2, 2)
    assert from_inversion_sequence((0, 0, 0, 3, 2, 2)) == (4, 1, 5, 6, 2, 3)


def test_small_cases():
    assert inversion_sequence((1,)) == (0,)
    assert inversion_sequence((3, 2, 1)) == (0, 1, 2)
    assert from_inversion_sequence((0, 1, 2)) == (3, 2, 1)
    assert inversion_sequence(identity(5)) == (0, 0, 0, 0, 0)
    assert inversion_sequence(long_element(5)) == (0, 1, 2, 3, 4)
    # the two extreme masks of the largest word encoded with one mask
    assert inversion_sequence(identity(1023)) == (0,) * 1023
    assert inversion_sequence(long_element(1023)) == tuple(range(1023))


@pytest.mark.parametrize("n", range(1, 8))
def test_round_trip_exhaustive(n):
    assert list(round_trip_failures(n)) == []


@given(perms)
def test_round_trip_property(w):
    assert from_inversion_sequence(inversion_sequence(w)) == w


@given(large_perms)
def test_encode_matches_the_counting_definition(w):
    assert inversion_sequence(w) == inversion_sequence_by_counting(w)


def test_round_trip_at_large_n():
    w = list(range(1, 20001))
    random.Random(20000).shuffle(w)
    w = tuple(w)
    x = inversion_sequence(w)
    validate_inversion_sequence(x)
    assert from_inversion_sequence(x) == w


# The encoder marks the values it has seen in one bitmask below RUN values
# and in one bitmask per run of RUN values from there on; these sizes end
# the word just below, at and just past a run edge.
RUN = 2**_RUN_BITS


@pytest.mark.parametrize("n", [RUN - 1, RUN, RUN + 1, 2 * RUN, 2 * RUN + 1])
def test_encode_where_the_runs_meet(n):
    w = list(range(1, n + 1))
    random.Random(n).shuffle(w)
    w = tuple(w)
    assert inversion_sequence(w) == inversion_sequence_by_counting(w)


@pytest.mark.parametrize("word", [identity, long_element])
def test_encode_across_three_full_runs(word):
    w = word(3 * RUN + 1)
    assert inversion_sequence(w) == inversion_sequence_by_counting(w)


# Past START values the decoder keeps the word in runs of RUN to 2 * RUN
# entries; START + 1 = 3 * RUN + 1 is the first size that decodes in runs.
START = _DECODE_RUNS_FROM


@pytest.mark.parametrize("n", [START - 1, START, START + 1])
def test_decode_where_the_run_phase_starts(n):
    rng = random.Random(n)
    x = tuple(rng.randrange(i) for i in range(1, n + 1))
    assert inversion_sequence_by_counting(from_inversion_sequence(x)) == x


@pytest.mark.parametrize("end", ["front", "back"])
def test_decode_past_a_run_split(end):
    # every value past START goes into the first or the last run, which
    # reaches 2 * RUN entries and splits at value START + RUN; then the last
    # value goes to the very front or end of the word
    n = START + RUN + 1
    rng = random.Random(n)
    x = [rng.randrange(i) for i in range(1, START + 1)]
    for i in range(START + 1, n):
        index = rng.randrange(RUN) if end == "front" else i - 1 - rng.randrange(RUN)
        x.append(i - 1 - index)
    x = (*x, n - 1 if end == "front" else 0)
    assert inversion_sequence_by_counting(from_inversion_sequence(x)) == x


def test_validation_rejects_garbage():
    with pytest.raises(ValueError):
        validate_permutation(())
    with pytest.raises(ValueError):
        validate_permutation((1, 1, 2))
    with pytest.raises(ValueError):
        validate_permutation((0, 1))
    # the right length with a value missing, or with one far out of range
    for word in ((1, 3), (1, 2, 4), (3, 1), (1, 2**70)):
        with pytest.raises(ValueError):
            validate_permutation(word)
    # bools and floats compare equal to ints but are not permutation entries
    for word in ((True,), (True, 2), (2.0, 1.0)):
        with pytest.raises(ValueError):
            validate_permutation(word)
    with pytest.raises(ValueError):
        inversion_sequence((2.0, 1.0))
    with pytest.raises(ValueError):
        format_permutation((2.0, 1.0))
    with pytest.raises(ValueError):
        validate_inversion_sequence((0, 2))
    with pytest.raises(ValueError):
        validate_inversion_sequence(())
    # the same type rule holds for inversion-sequence entries
    for coords in ((False,), (0, True), (0, 1.0), (0.0,)):
        with pytest.raises(ValueError):
            validate_inversion_sequence(coords)
    with pytest.raises(ValueError):
        from_inversion_sequence((0, 1.0))


def test_enumeration_refuses_more_than_ten_factorial():
    with pytest.raises(ValueError):
        all_permutations(11)


def test_enumeration_order_is_invseq_lex():
    seqs = list(all_inversion_sequences(3))
    assert seqs == [(0, 0, 0), (0, 0, 1), (0, 0, 2),
                    (0, 1, 0), (0, 1, 1), (0, 1, 2)]
    assert all_permutations(3) == [from_inversion_sequence(x) for x in seqs]


# -- patterns ----------------------------------------------------------------


def test_classical_counting():
    assert not avoids_classical((1, 4, 2, 3), (1, 2))
    assert avoids_classical((1, 2, 3), (2, 1))
    assert not avoids_classical((2, 1, 3), (2, 1))


def test_mesh_example_1423():
    rise = MeshPattern((1, 2))
    meshed = MeshPattern((1, 2), {(1, 0), (1, 1)})
    assert mesh_contains((1, 4, 2, 3), rise) == 4
    assert mesh_contains((1, 4, 2, 3), meshed) == 3


def test_mesh_cell_bounds():
    with pytest.raises(ValueError):
        MeshPattern((1, 2), {(3, 0)})


def test_fully_shaded_single_cell():
    # shading every cell forces the occurrence to be the whole word
    k = 3
    full = MeshPattern((1, 3, 2), {(a, b) for a in range(k + 1) for b in range(k + 1)})
    assert mesh_contains((1, 3, 2), full) == 1
    assert mesh_contains((1, 4, 2, 3), full) == 0


@given(perms)
def test_empty_mesh_equals_classical(w):
    p = (2, 1, 3)
    occurrences = sum(
        all((w[a] < w[b]) == (p[s] < p[t])
            for (s, a), (t, b) in itertools.combinations(enumerate(positions), 2))
        for positions in itertools.combinations(range(len(w)), len(p)))
    assert mesh_contains(w, MeshPattern(p)) == occurrences


# -- cycles and Foata ---------------------------------------------------------


def test_cycles():
    assert cycles((4, 1, 5, 6, 2, 3)) == [(1, 4, 6, 3, 5, 2)]
    assert cycles((2, 1, 3)) == [(1, 2), (3,)]
    assert cycle_count(identity(6)) == 6


def test_involution_predicate():
    assert is_involution((2, 1, 4, 3))
    assert not is_involution((2, 3, 1))


def test_foata_image_example():
    assert foata_image((3, 2, 1)) == (3, 1, 2)
    assert foata_image(identity(4)) == identity(4)


@pytest.mark.parametrize("n", range(1, 7))
def test_foata_is_a_bijection_matching_statistics(n):
    images = set()
    for w in all_permutations(n):
        img = foata_image(w)
        images.add(img)
        assert cycle_count(w) == len(right_to_left_minima(img))
    assert len(images) == len(all_permutations(n))


@given(perms)
def test_rl_minima_are_zero_coordinates(w):
    x = inversion_sequence(w)
    assert right_to_left_minima(w) == {i for i in range(1, len(w) + 1) if x[i - 1] == 0}


# -- serialization -------------------------------------------------------------


def test_format_parse_round_trip():
    assert format_permutation((4, 1, 5, 6, 2, 3)) == "415623"
    assert parse_permutation("415623") == (4, 1, 5, 6, 2, 3)
    big = tuple(range(12, 0, -1))
    assert parse_permutation(format_permutation(big)) == big
    assert format_inversion_sequence((0, 0, 2)) == "0,0,2"
    assert parse_inversion_sequence("0,0,2") == (0, 0, 2)


@given(st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(tuple))
def test_parse_permutation_inverts_format(w):
    assert parse_permutation(format_permutation(w)) == w


@given(st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(*(st.integers(0, i) for i in range(n)))))
def test_parse_inversion_sequence_inverts_format(x):
    assert parse_inversion_sequence(format_inversion_sequence(x)) == x


def test_parse_rejects_bad_input():
    for text in ("", "abc", "1,x", "122"):
        with pytest.raises(ValueError):
            parse_permutation(text)
    with pytest.raises(ValueError):
        parse_inversion_sequence("0,9")
