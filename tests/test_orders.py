import pytest
from hypothesis import given, strategies as st

from middleorder.orders import (
    _mobius_codes,
    bruhat_leq,
    bruhat_poset,
    cover_mesh_witness,
    join,
    join_irreducibles,
    meet,
    middle_leq,
    middle_poset,
    middle_subposet,
    mobius_middle,
    rank,
    upper_covers,
    weak_leq,
    weak_poset,
)
from middleorder.permutations import (
    all_inversion_sequences,
    all_permutations,
    from_inversion_sequence,
    identity,
    inversion_sequence,
    long_element,
)
from middleorder.posets import FinitePoset, PosetError

pairs = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(1, n + 1))).map(tuple),
        st.permutations(list(range(1, n + 1))).map(tuple),
    )
)

triples = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(*(st.permutations(list(range(1, n + 1))).map(tuple),) * 3)
)

MIDDLE_S3 = {
    ("123", "213"), ("123", "132"), ("213", "231"), ("132", "231"),
    ("132", "312"), ("231", "321"), ("312", "321"),
}
WEAK_S3 = {
    ("123", "213"), ("123", "132"), ("213", "231"), ("132", "312"),
    ("231", "321"), ("312", "321"),
}
BRUHAT_S3 = {
    ("123", "213"), ("123", "132"), ("213", "231"), ("213", "312"),
    ("132", "231"), ("132", "312"), ("231", "321"), ("312", "321"),
}


def word(w):
    return "".join(str(v) for v in w)


def test_golden_cover_sets_on_s3():
    assert {(word(a), word(b)) for a, b in middle_poset(3).cover_labels()} == MIDDLE_S3
    assert {(word(a), word(b)) for a, b in weak_poset(3).cover_labels()} == WEAK_S3
    assert {(word(a), word(b)) for a, b in bruhat_poset(3).cover_labels()} == BRUHAT_S3


def test_weak_and_bruhat_refuse_n_above_seven():
    v, w = identity(8), long_element(8)
    for call in (lambda: weak_leq(v, w), lambda: bruhat_leq(v, w),
                 lambda: weak_poset(8), lambda: bruhat_poset(8)):
        with pytest.raises(ValueError):
            call()


def test_specific_comparabilities():
    assert middle_leq((1, 3, 2), (3, 1, 2))
    assert not middle_leq((3, 1, 2), (1, 3, 2))
    assert middle_leq(identity(4), long_element(4))
    assert not weak_leq((1, 3, 2), (2, 3, 1))
    assert middle_leq((1, 3, 2), (2, 3, 1))
    assert bruhat_leq((1, 3, 2), (3, 1, 2))


@given(pairs)
def test_sandwich_property(vw):
    v, w = vw
    if weak_leq(v, w):
        assert middle_leq(v, w)
    if middle_leq(v, w):
        assert bruhat_leq(v, w)


@given(triples)
def test_lattice_laws(vwt):
    v, w, t = vwt
    assert meet(v, w) == meet(w, v)
    assert join(v, w) == join(w, v)
    assert meet(v, meet(w, t)) == meet(meet(v, w), t)
    assert meet(v, join(v, w)) == v
    assert join(v, meet(v, w)) == v
    # distributivity
    assert meet(v, join(w, t)) == join(meet(v, w), meet(v, t))


@given(pairs)
def test_meet_join_are_bounds(vw):
    v, w = vw
    m, j = meet(v, w), join(v, w)
    assert middle_leq(m, v) and middle_leq(m, w)
    assert middle_leq(v, j) and middle_leq(w, j)


@given(st.integers(min_value=1, max_value=300).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(tuple))
def test_upper_covers_raise_one_coordinate(w):
    x = inversion_sequence(w)
    expected = [
        from_inversion_sequence(x[:i] + (x[i] + 1,) + x[i + 1:])
        for i in range(len(x)) if x[i] < i
    ]
    assert upper_covers(w) == expected


@pytest.mark.parametrize("bad", [(), (True,), (2, True), (1, 1), (1, 2, 2), (0, 1)])
def test_upper_covers_reject_bad_input(bad):
    with pytest.raises(ValueError):
        upper_covers(bad)


def test_rank_is_inversion_count():
    assert rank(identity(5)) == 0
    assert rank(long_element(5)) == 10
    assert rank((3, 1, 2)) == 2


@pytest.mark.parametrize("n", range(1, 6))
def test_covers_raise_rank_by_one(n):
    for v in all_permutations(n):
        for w in upper_covers(v):
            steps = [b - a for a, b in zip(inversion_sequence(v), inversion_sequence(w))]
            assert sorted(steps) == [0] * (n - 1) + [1]
            assert rank(w) == rank(v) + 1
            assert middle_leq(v, w)


@pytest.mark.parametrize("n", range(2, 6))
def test_cover_mesh_witness_characterizes_covers(n):
    for v in all_permutations(n):
        covering = set(upper_covers(v))
        for w in all_permutations(n):
            witness = cover_mesh_witness(v, w)
            if w in covering:
                j, i = witness
                assert j < i
            else:
                assert witness is None


def test_join_irreducibles_count_and_shape():
    for n in range(1, 7):
        ji = join_irreducibles(n)
        assert len(ji) == n * (n - 1) // 2
        assert len(set(ji)) == len(ji)
        for w in ji:
            assert sum(1 for v in all_permutations(n)
                       if cover_mesh_witness(v, w) is not None) == 1


def test_mobius_closed_form_values():
    assert mobius_middle((1, 2, 3), (1, 2, 3)) == 1
    assert mobius_middle((1, 2, 3), (2, 1, 3)) == -1
    assert mobius_middle((1, 2, 3), (2, 3, 1)) == 1  # two coordinate steps
    assert mobius_middle((1, 2, 3), (3, 1, 2)) == 0  # coordinate jump of 2
    assert mobius_middle((2, 1, 3), (1, 2, 3)) == 0  # not below


@pytest.mark.parametrize("n", range(1, 5))
def test_mobius_against_oracle(n):
    # The public function, and the core it wraps on the codes.
    poset = middle_poset(n)
    codes = [inversion_sequence(w) for w in poset.labels]
    for i, (v, x) in enumerate(zip(poset.labels, codes)):
        for j, (w, y) in enumerate(zip(poset.labels, codes)):
            assert mobius_middle(v, w) == _mobius_codes(x, y) == poset.mobius(i, j)


@pytest.mark.parametrize("n", range(1, 5))
def test_middle_poset_is_a_chain_product(n):
    # w -> I(w) carries P_n onto the box [0,0] x ... x [0,n-1], ordered coordinatewise.
    poset = middle_poset(n)
    codes = [inversion_sequence(w) for w in poset.labels]
    assert sorted(codes) == sorted(all_inversion_sequences(n))
    for i, x in enumerate(codes):
        for j, y in enumerate(codes):
            assert poset.leq(i, j) == all(a <= b for a, b in zip(x, y))


@pytest.mark.parametrize("n", range(1, 6))
def test_gradedness(n):
    graded, ranks = middle_poset(n).is_graded()
    assert graded
    poset = middle_poset(n)
    assert all(ranks[i] == rank(poset.labels[i]) for i in range(poset.n))


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        middle_leq((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        meet((1,), (2, 1))


S5 = all_permutations(5)


@given(st.lists(st.sampled_from(S5), unique=True, max_size=40))
def test_middle_subposet_matches_pairwise_comparison(perms):
    fast = middle_subposet(perms)
    slow = FinitePoset.from_leq(perms, middle_leq)
    assert fast.labels == slow.labels
    assert fast._above == slow._above
    assert fast.covers == slow.covers


def test_middle_subposet_rejects_bad_labels():
    with pytest.raises(ValueError):
        middle_subposet([(1, 2), (1, 2, 3)])
    with pytest.raises(PosetError):
        middle_subposet([(2, 1), (2, 1)])
    with pytest.raises(ValueError):
        middle_subposet([(1, 1)])
