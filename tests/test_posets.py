import ast
import itertools
import pathlib
import random
import re
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from middleorder.involutions import involution_poset
from middleorder.orders import middle_poset, upper_covers
from middleorder.parking import parking_poset
from middleorder.permutations import all_permutations
from middleorder.posets import (
    POSET_SIZE_LIMIT,
    FinitePoset,
    PosetError,
    antichain,
    birkhoff,
    boolean_lattice,
    chain,
    diamond,
    pentagon,
)
from middleorder.verify import is_distributive_by_triples

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "middleorder"
PERFBENCH = SRC.parent.parent / "perfbench"


def divisor_poset(numbers):
    return FinitePoset.from_leq(list(numbers), lambda a, b: b % a == 0)


def grid(sizes):
    """The product of chains [0, s_1 - 1] x ... x [0, s_k - 1]."""
    labels = list(itertools.product(*map(range, sizes)))
    return FinitePoset.from_vectors(labels, labels)


def product_of(p, q):
    """The pairs (a, b) of labels of p and q, ordered coordinatewise."""
    return FinitePoset.from_leq(list(itertools.product(p.labels, q.labels)),
                                lambda s, t: p.leq_labels(s[0], t[0]) and q.leq_labels(s[1], t[1]))


def strict_pairs(p):
    return [(i, j) for i in range(p.n) for j in range(p.n) if i != j and p.leq(i, j)]


def random_dag_poset(rng, n):
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.3
    ]
    return FinitePoset.from_covers(list(range(n)), pairs)


# -- construction ---------------------------------------------------------------


def test_from_covers_rejects_cycles_and_loops():
    with pytest.raises(PosetError):
        FinitePoset.from_covers([0, 1], [(0, 1), (1, 0)])
    with pytest.raises(PosetError):
        FinitePoset.from_covers([0], [(0, 0)])
    with pytest.raises(PosetError):
        FinitePoset.from_covers([0], [(0, 3)])
    for labels, covers in ((["a", "b"], [("x", 1)]), (["a", "b"], [(0.0, 1)]), (["a", "b"], 7),
                           (5, []), (["a", "b"], [[0, 1]])):
        with pytest.raises(PosetError):
            FinitePoset.from_covers(labels, covers)


def test_from_leq_rejects_non_orders():
    with pytest.raises(PosetError):
        FinitePoset.from_leq([0, 1], lambda a, b: True)  # not antisymmetric
    with pytest.raises(PosetError):
        FinitePoset.from_leq([0, 1], lambda a, b: a == b + 1 or a == b - 1 or a == b)


@pytest.mark.parametrize("call", [
    lambda: FinitePoset.from_edge_list(b"a < b"),
    lambda: FinitePoset.from_dot(None),
    lambda: FinitePoset.from_leq([0, 1], 5),
    lambda: FinitePoset.from_covers([[1], [2]], []),
    lambda: chain(2).relabeled([{1}, {2}]),
    lambda: chain(2).relabeled(5),
    lambda: FinitePoset(5, []),
    lambda: chain(3).mobius(0, 9),
    lambda: chain(3).mobius(-1, 2),
    lambda: chain(3).leq(0, 9),
    lambda: chain(3).meet(True, 1),
    lambda: chain(3).join(0, 3),
    lambda: chain(3).index_of(7),
    lambda: chain(3).leq_labels([1], 0),
    lambda: chain(2).index_of(10**5000),
], ids=["edge-list-of-bytes", "dot-of-none", "leq-not-callable", "unhashable-labels",
        "relabeled-unhashable", "relabeled-not-iterable", "init-labels-not-iterable",
        "mobius-past-the-end", "mobius-negative", "leq-past-the-end", "meet-bool-index",
        "join-past-the-end", "index-of-missing", "leq-labels-unhashable",
        "index-of-huge-int"])
def test_junk_arguments_raise_poset_error(call):
    with pytest.raises(PosetError):
        call()


def test_duplicate_labels_rejected():
    with pytest.raises(PosetError):
        FinitePoset.from_covers([0, 0], [])


def test_transitive_reduction_round_trip_random_dags():
    rng = random.Random(7)
    for n in (5, 20, 60, 100):
        p = random_dag_poset(rng, n)
        q = FinitePoset.from_covers(p.labels, list(p.covers))
        assert q._above == p._above
        assert q.covers == p.covers


def _brute_covers_and_below(p):
    """Covers and down-sets read off the comparability relation pair by pair."""
    n = p.n
    strict = [[j for j in range(n) if j != i and p.leq(i, j)] for i in range(n)]
    covers = {
        (i, j) for i in range(n) for j in strict[i]
        if not any(k != j and p.leq(k, j) for k in strict[i])
    }
    below = [sum(1 << i for i in range(n) if p.leq(i, j)) for j in range(n)]
    return covers, below


@given(st.data())
def test_constructor_matches_brute_force_on_shuffled_dags(data):
    n = data.draw(st.integers(min_value=1, max_value=20))
    position = data.draw(st.permutations(range(n)))  # index -> place in a hidden linear order
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=3 * n))
    pairs = [(a, b) for a, b in edges if position[a] < position[b]]
    p = FinitePoset.from_covers(range(n), pairs)
    implied = strict_pairs(p)
    extra = data.draw(st.lists(st.sampled_from(implied))) if implied else []
    redundant = FinitePoset.from_covers(range(n), pairs + extra)
    for q in (p, redundant):
        covers, below = _brute_covers_and_below(q)
        assert q._above == p._above
        assert q.covers == covers
        assert q._below == below
        rank = {i: k for k, i in enumerate(q._order)}
        assert sorted(q._order) == list(range(n))
        assert all(rank[i] < rank[j] for i, j in covers)


def test_relabeled_shares_the_order():
    p = boolean_lattice(3)
    q = p.relabeled(["".join(map(str, lab)) or "e" for lab in p.labels])
    assert q.labels[-1] == "012" and q.index_of("e") == 0
    assert q._above is p._above and q.covers is p.covers
    assert q.leq_labels("e", "012") and p.labels[0] == ()
    with pytest.raises(PosetError):
        p.relabeled(range(p.n - 1))
    with pytest.raises(PosetError):
        p.relabeled([0] * p.n)


def test_only_posets_touches_the_bound_internals():
    # Bounds are read through FinitePoset.meet/join, never from tables.
    for path in sorted(SRC.glob("*.py")):
        if path.name == "posets.py":
            continue
        names = {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute)}
        assert "_bound_tables" not in names, path.name


# Public names with no caller in another module of the package and no
# mention in perfbench/tracer.py or perfbench/worker.py, each with its reason.
UNCALLED_ON_PURPOSE = {
    "posets": {
        "chain": "stock poset, a fixture of the oracle's own tests",
        "antichain": "stock poset, a fixture of the oracle's own tests",
        "boolean_lattice": "stock poset, a fixture of the oracle's own tests",
        "pentagon": "stock poset, a fixture of the oracle's own tests",
        "diamond": "stock poset, a fixture of the oracle's own tests",
        "leq": "the order relation itself, for callers outside the package",
        "to_edge_list": "serializer: labels round-trip through text",
        "from_edge_list": "serializer: labels round-trip through text",
    },
    "permutations": {
        "long_element": "public: the top of the middle order",
        "cycles": "cycle_count and foata_image are built on it",
        "repr_int": "reprlib hook: Repr.repr calls it for each int it shows",
    },
}


@pytest.mark.parametrize("module", sorted(UNCALLED_ON_PURPOSE))
def test_every_public_name_has_a_caller_or_a_reason(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    methods = {item.name for node in tree.body if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)}
    imported, attributes = set(), set()
    for path in SRC.glob("*.py"):
        if path.stem == module:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(module):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id == module:
                    imported.add(node.attr)
    bench = "".join((PERFBENCH / name).read_text() for name in ("tracer.py", "worker.py"))
    allowed = UNCALLED_ON_PURPOSE[module]
    uncalled = sorted(
        name for names, referenced in ((functions, imported), (methods, attributes))
        for name in names
        if not name.startswith("_") and name not in referenced
        and not re.search(rf"\b{name}\b", bench) and name not in allowed
    )
    assert not uncalled, uncalled
    assert allowed.keys() <= functions | methods


def test_reduction_drops_implied_edges():
    p = FinitePoset.from_covers([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    assert p.covers == {(0, 1), (1, 2)}


# -- basic queries ----------------------------------------------------------------


def test_leq_and_extremes():
    p = divisor_poset([1, 2, 3, 4, 6, 12])
    assert p.leq_labels(2, 12) and not p.leq_labels(4, 6)
    assert all(p.leq_labels(1, b) and p.leq_labels(b, 12) for b in p.labels)
    assert p.cover_labels() == {(1, 2), (1, 3), (2, 4), (2, 6), (3, 6), (4, 12), (6, 12)}


def test_enumerate_intervals():
    p = divisor_poset([1, 2, 3, 4, 6, 12])
    intervals = {(p.labels[i], p.labels[j]) for i, j in p.enumerate_intervals()}
    assert len(intervals) == len(p.enumerate_intervals())
    assert intervals == {(a, b) for a in p.labels for b in p.labels if b % a == 0}


# -- Moebius ----------------------------------------------------------------------


def test_mobius_on_known_posets():
    b3 = boolean_lattice(3)
    bot, top = b3.index_of(()), b3.index_of((0, 1, 2))
    assert b3.mobius(bot, top) == -1
    c = chain(4)
    assert c.mobius(0, 0) == 1 and c.mobius(0, 1) == -1 and c.mobius(0, 2) == 0
    d = divisor_poset([1, 2, 3, 5, 30, 6, 10, 15])
    # classical number-theoretic Moebius values
    mu = {b: d.mobius(d.index_of(1), d.index_of(b)) for b in (30, 6, 2)}
    assert mu == {30: -1, 6: 1, 2: -1}


@pytest.mark.parametrize("maker", [lambda: boolean_lattice(3), pentagon, diamond,
                                   lambda: grid((2, 3, 3))])
def test_mobius_sum_rule(maker):
    p = maker()
    for i, j in strict_pairs(p):
        assert sum(p.mobius(i, t) for t in range(p.n) if p.leq(i, t) and p.leq(t, j)) == 0


def _mobius_by_definition(p):
    @lru_cache(maxsize=None)
    def mu(s, u):
        if s == u:
            return 1
        interval = p._above[s] & p._below[u]
        return -sum(mu(s, t) for t in range(p.n) if t != u and interval >> t & 1)
    return mu


@pytest.mark.parametrize("maker", [
    lambda: boolean_lattice(3), pentagon, diamond, lambda: antichain(3), lambda: chain(5),
    lambda: grid((2, 3, 3)), lambda: product_of(pentagon(), chain(2)),
    lambda: divisor_poset([30, 1, 6, 2, 10, 3, 15, 5]),
    lambda: FinitePoset.from_leq([(0, 1, 2, 3), (1,), (), (0, 1), (0,), (2, 3)],
                                 lambda a, b: set(a) <= set(b)),
])
def test_mobius_matches_the_defining_recursion(maker):
    p = maker()
    mu = _mobius_by_definition(p)
    assert [[p.mobius(s, u) for u in range(p.n)] for s in range(p.n)] == [
        [mu(s, u) for u in range(p.n)] for s in range(p.n)
    ]


def test_mobius_on_a_long_chain_with_reversed_indices():
    # Index 0 is the top, so the interval [bottom, top] is 3000 elements
    # deep in index order; the Moebius row must not recurse.
    c = FinitePoset.from_covers(range(3000), [(i + 1, i) for i in range(2999)])
    assert c.mobius(2999, 0) == 0
    assert c.mobius(1, 0) == -1
    assert c.mobius(0, 2999) == 0


def test_covers_of_a_long_chain_with_reversed_indices():
    # Every up-set holds smaller indices, so the cover sweep cannot go by index.
    c = FinitePoset.from_covers(range(3000), [(i + 1, i) for i in range(2999)])
    assert c.covers == {(i + 1, i) for i in range(2999)}
    assert c._order == list(range(2999, -1, -1))


@pytest.mark.parametrize("seed", range(3))
def test_covers_survive_shuffled_indices_across_blocks(seed):
    # 120 elements span two blocks of the topological sweep.
    p = FinitePoset.from_vectors(all_permutations(5), [w[::-1] for w in all_permutations(5)])
    new_index = list(range(p.n))
    random.Random(seed).shuffle(new_index)
    above = [0] * p.n
    for i, mask in enumerate(p._above):
        above[new_index[i]] = sum(1 << new_index[j] for j in range(p.n) if mask >> j & 1)
    labels = [None] * p.n
    for i, label in enumerate(p.labels):
        labels[new_index[i]] = label
    q = FinitePoset(labels, above)
    assert q.cover_labels() == p.cover_labels()
    rank = {i: k for k, i in enumerate(q._order)}
    assert all(rank[i] < rank[j] for i, j in q.covers)


# -- gradedness ---------------------------------------------------------------------


def test_graded_with_ranks():
    graded, ranks = boolean_lattice(3).is_graded()
    assert graded
    b3 = boolean_lattice(3)
    assert all(ranks[i] == len(b3.labels[i]) for i in range(b3.n))


def test_ungraded_witness_chains():
    graded, (short, long) = pentagon().is_graded()
    assert not graded
    assert short[0] == long[0] and short[-1] == long[-1]
    assert len(short) != len(long)


def maximal_chain_lengths(p, x, y):
    """The lengths of the saturated chains from x to y, by the definition."""
    if x == y:
        return {0}
    return {1 + k for lo, hi in p.covers if lo == x and p.leq(hi, y)
            for k in maximal_chain_lengths(p, hi, y)}


def test_is_graded_matches_every_maximal_chain_of_every_interval():
    # Points of a 3 x 3 grid under the componentwise order give an
    # ungraded poset about one time in six; random DAGs seldom do.
    rng = random.Random(11)
    cells = list(itertools.product(range(3), repeat=2))
    posets = [random_dag_poset(rng, rng.randint(1, 7)) for _ in range(100)]
    posets += [FinitePoset.from_vectors(pts, pts)
               for pts in (rng.sample(cells, rng.randint(1, 7)) for _ in range(200))]
    verdicts = []
    for p in posets:
        lengths = {(x, y): maximal_chain_lengths(p, x, y) for x, y in strict_pairs(p)}
        graded, found = p.is_graded()
        assert graded == all(len(ks) == 1 for ks in lengths.values())
        verdicts.append(graded)
        if graded:  # the rank of y is the length of the longest chain ending at y
            assert found == [max([0] + [max(ks) for (_, top), ks in lengths.items() if top == y])
                             for y in range(p.n)]
        else:
            a, b = found
            assert a[0] == b[0] and a[-1] == b[-1] and len(a) != len(b)
            assert all((lo, hi) in p.covers for c in (a, b) for lo, hi in zip(c, c[1:]))
    assert verdicts.count(False) >= 20


# -- lattice structure -----------------------------------------------------------------


def test_lattice_recognition():
    assert boolean_lattice(3).is_lattice()
    assert grid((2, 2, 3)).is_lattice()
    assert not antichain(2).is_lattice()
    two_tops = FinitePoset.from_covers([0, 1, 2], [(0, 1), (0, 2)])
    assert not two_tops.is_lattice()


def test_distributive_recognition():
    assert boolean_lattice(3).is_distributive()
    assert chain(5).is_distributive()
    assert not pentagon().is_distributive()
    assert not diamond().is_distributive()


def _brute_bound(p, i, j, leq):
    """The bound of i and j that every other common bound is leq-related to."""
    common = [k for k in range(p.n) if leq(i, k) and leq(j, k)]
    best = [k for k in common if all(leq(k, m) for m in common)]
    return best[0] if best else None


@given(st.data())
def test_meet_and_join_match_brute_force_bounds(data):
    n = data.draw(st.integers(min_value=0, max_value=12))
    position = data.draw(st.permutations(range(n)))
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=3 * n)) if n else []
    pairs = [(a, b) for a, b in edges if position[a] < position[b]]
    p = FinitePoset.from_covers(range(n), pairs)
    implied = strict_pairs(p)
    extra = data.draw(st.lists(st.sampled_from(implied))) if implied else []
    p = FinitePoset.from_covers(range(n), pairs + extra)
    for i in range(n):
        for j in range(n):
            assert p.join(i, j) == _brute_bound(p, i, j, p.leq)
            assert p.meet(i, j) == _brute_bound(p, i, j, lambda a, b: p.leq(b, a))


def test_meet_and_join_on_the_pentagon():
    p = pentagon()
    bot, a, b, c, top = range(5)
    assert p.meet(b, c) == bot and p.join(a, c) == top
    assert p.meet(a, b) == a and p.join(a, b) == b
    two_tops = FinitePoset.from_covers([0, 1, 2], [(0, 1), (0, 2)])
    assert two_tops.join(1, 2) is None and two_tops.meet(1, 2) == 0


def _is_n5(p, quint):
    """Five distinct elements bot < y < top, bot < a < b < top with y
    incomparable to a and b, closed under meet and join."""
    bot, y, a, b, top = quint
    if len(set(quint)) != 5:
        return False
    chains = all(p.leq(s, t) for s, t in ((bot, y), (y, top), (bot, a), (a, b), (b, top)))
    apart = not any(p.leq(s, t) or p.leq(t, s) for s, t in ((y, a), (y, b)))
    return chains and apart and all(
        p.meet(y, s) == bot and p.join(y, s) == top for s in (a, b)
    )


def test_sublattice_witnesses():
    for p in (pentagon(), parking_poset(3), parking_poset(4)):
        quint = p.find_pentagon()
        assert quint is not None and _is_n5(p, quint)
    assert diamond().find_pentagon() is None
    assert boolean_lattice(3).find_pentagon() is None
    with pytest.raises(PosetError):
        antichain(2).find_pentagon()


STOCK_POSETS = [
    pentagon(),
    diamond(),
    product_of(pentagon(), chain(2)),
    product_of(diamond(), chain(2)),
    boolean_lattice(4),
    chain(6),
    grid((2, 3, 4)),
    parking_poset(3),
    parking_poset(4),
    involution_poset(4),
    antichain(0),
    antichain(1),
    antichain(2),
]
# Only involution_poset(4) and the two-element antichain are not lattices.
STOCK_IS_LATTICE = [True] * 9 + [False, True, True, False]


def test_lattice_verdicts_on_stock_posets():
    assert [p.is_lattice() for p in STOCK_POSETS] == STOCK_IS_LATTICE


def test_distributivity_checkers_agree():
    for p in STOCK_POSETS:
        assert p.is_distributive() == is_distributive_by_triples(p)


@given(st.data())
def test_distributivity_certificate_matches_triple_scan(data):
    n = data.draw(st.integers(min_value=0, max_value=9))
    position = data.draw(st.permutations(range(n)))
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=3 * n)) if n else []
    p = FinitePoset.from_covers(range(n), [(a, b) for a, b in edges if position[a] < position[b]])
    assert p.is_distributive() == is_distributive_by_triples(p)


def middle_cover_list(n):
    perms = all_permutations(n)
    index = {w: i for i, w in enumerate(perms)}
    return len(perms), [(i, index[u]) for i, w in enumerate(perms) for u in upper_covers(w)]


@pytest.mark.parametrize("n", range(1, 6))
def test_certificate_rejects_a_dropped_cover_or_a_redundant_edge(n):
    size, covers = middle_cover_list(n)
    assert birkhoff(size, covers) is not None
    for k in range(len(covers)):
        assert birkhoff(size, covers[:k] + covers[k + 1:]) is None
    succ = {}
    for lo, hi in covers:
        succ.setdefault(lo, []).append(hi)
    shortcuts = {(x, z) for x, y in covers for z in succ.get(y, ())}
    assert shortcuts or n < 3
    for edge in shortcuts:
        assert birkhoff(size, covers + [edge]) is None


@pytest.mark.parametrize("n", (3, 4))
def test_certificate_matches_triple_scan_after_merging_two_elements(n):
    rng = random.Random(n)
    size, covers = middle_cover_list(n)
    for _ in range(100):
        keep, gone = rng.sample(range(size), 2)
        merged = {(keep if lo == gone else lo, keep if hi == gone else hi) for lo, hi in covers}
        try:
            p = FinitePoset.from_covers(range(size), [(a, b) for a, b in merged if a != b])
        except PosetError:  # the merge closed a cycle
            continue
        assert p.is_distributive() == is_distributive_by_triples(p)


def test_certificate_rejects_malformed_diagrams():
    assert birkhoff(0, []) == ([], [])
    assert birkhoff(2, [(0, 1), (0, 1)]) == ([0, 1], [0])
    for n, covers in ((2, [(0, 2)]), (2, [(-1, 0)]), (2, [(0, 1), (1, 0)]),
                      (1, [(0, 0)]), (-1, []), (1.5, []), (True, []), (2, [("x", 1)]),
                      (2, [(0.0, 1)]), (2, 7), (-10**5000, [])):
        with pytest.raises(PosetError):
            birkhoff(n, covers)


def test_sizes_past_the_limit_are_refused_before_the_covers_are_read():
    def untouched():
        raise AssertionError("the covers were read")
        yield

    for size in (POSET_SIZE_LIMIT + 1, 10**30):
        with pytest.raises(PosetError, match="exceeds the limit"):
            birkhoff(size, untouched())
    assert birkhoff(POSET_SIZE_LIMIT, []) is None  # an antichain, not a lattice


def _embedding(p):
    return birkhoff(p.n, p.covers)


@pytest.mark.parametrize("k", range(5))
def test_birkhoff_of_a_boolean_lattice_has_k_incomparable_irreducibles(k):
    phi, below = _embedding(boolean_lattice(k))
    assert len(below) == k and not any(below)
    assert sorted(phi) == list(range(2**k))


@pytest.mark.parametrize("k", range(1, 7))
def test_birkhoff_of_a_chain_stacks_its_irreducibles(k):
    phi, below = _embedding(chain(k))
    assert below == [(1 << j) - 1 for j in range(k - 1)]
    assert phi == [(1 << i) - 1 for i in range(k)]


@pytest.mark.parametrize("n", range(1, 6))
def test_birkhoff_ranks_match_the_longest_path_ranks(n):
    p = middle_poset(n)
    graded, ranks = p.is_graded()
    phi, below = _embedding(p)
    assert graded and [mask.bit_count() for mask in phi] == ranks
    assert len(below) == n * (n - 1) // 2


def test_birkhoff_refuses_the_pentagon_and_the_diamond():
    assert _embedding(pentagon()) is None
    assert _embedding(diamond()) is None


@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(-3, 3)] * d), unique=True, max_size=30)))
def test_from_vectors_matches_componentwise_leq(vectors):
    labels = [f"v{k}" for k in range(len(vectors))]
    fast = FinitePoset.from_vectors(labels, vectors)
    by_label = dict(zip(labels, vectors))
    slow = FinitePoset.from_leq(
        labels, lambda a, b: all(x <= y for x, y in zip(by_label[a], by_label[b])))
    assert fast.labels == slow.labels
    assert fast._above == slow._above
    assert fast.covers == slow.covers


def test_from_vectors_rejects_bad_vectors():
    with pytest.raises(PosetError):
        FinitePoset.from_vectors("ab", [(0, 1), (0, 1)])
    with pytest.raises(PosetError):
        FinitePoset.from_vectors("ab", [(0, 1), (0,)])
    with pytest.raises(PosetError):
        FinitePoset.from_vectors("ab", [(0, 1)])
    with pytest.raises(PosetError):
        FinitePoset.from_vectors(["a", "b"], [(0,), ("x",)])
    with pytest.raises(PosetError):
        FinitePoset.from_vectors("ab", [5, 6])
    far = FinitePoset.from_vectors("ab", [(-10**12,), (10**12,)])
    assert far.leq(0, 1) and not far.leq(1, 0)


def test_builders_refuse_more_than_the_element_limit():
    labels = range(POSET_SIZE_LIMIT + 1)
    with pytest.raises(PosetError, match="exceed the limit"):
        FinitePoset.from_vectors(labels, [(k,) for k in labels])
    with pytest.raises(PosetError, match="exceed the limit"):
        FinitePoset.from_covers(labels, [])
    with pytest.raises(PosetError, match="exceed the limit"):
        FinitePoset.from_leq(labels, lambda a, b: a <= b)


# -- isomorphism ------------------------------------------------------------------------


def test_isomorphism_basics():
    assert chain(2).are_isomorphic(chain(2))
    assert not chain(2).are_isomorphic(antichain(2))
    assert boolean_lattice(3).are_isomorphic(grid((2, 2, 2)))
    assert not boolean_lattice(3).are_isomorphic(grid((2, 4)))
    assert pentagon().are_isomorphic(
        FinitePoset.from_covers("vwxyz", [(0, 2), (2, 3), (3, 1), (0, 4), (4, 1)])
    )
    assert not pentagon().are_isomorphic(diamond())


def test_isomorphism_size_cap():
    with pytest.raises(PosetError):
        chain(65).are_isomorphic(chain(65))


def test_isomorphism_under_relabeling_shuffle():
    rng = random.Random(11)
    p = boolean_lattice(4)
    order = list(range(p.n))
    rng.shuffle(order)
    q = p.induced_subposet([p.labels[i] for i in order])
    assert p.are_isomorphic(q)


# -- import / export ----------------------------------------------------------------------


def test_edge_list_round_trip():
    p = divisor_poset([1, 2, 3, 6])
    q = FinitePoset.from_edge_list(p.to_edge_list())
    assert q.cover_labels() == {(str(a), str(b)) for a, b in p.cover_labels()}
    with pytest.raises(PosetError):
        FinitePoset.from_edge_list("1 2\n")


def test_dot_round_trip():
    p = boolean_lattice(2)
    q = FinitePoset.from_dot(p.to_dot())
    assert q.labels == tuple(map(str, p.labels))
    assert q.cover_labels() == {(str(a), str(b)) for a, b in p.cover_labels()}
    assert 'rankdir="BT"' in p.to_dot()


def test_dot_includes_isolated_nodes():
    p = antichain(3)
    q = FinitePoset.from_dot(p.to_dot())
    assert q.n == 3 and not q.covers


def test_edge_list_refuses_an_element_in_no_cover():
    assert antichain(0).to_edge_list() == ""
    for p in (antichain(1), antichain(3), FinitePoset.from_covers("abc", [(0, 1)])):
        with pytest.raises(PosetError):
            p.to_edge_list()


def test_serializers_refuse_labels_with_the_same_text():
    p = FinitePoset.from_covers([1, "1", 2], [(0, 2), (1, 2)])
    with pytest.raises(PosetError):
        p.to_edge_list()
    with pytest.raises(PosetError):
        p.to_dot()


def text_chain(labels):
    return FinitePoset.from_covers(labels, [(i, i + 1) for i in range(len(labels) - 1)])


def test_dot_escapes_quotes_backslashes_and_newlines():
    p = text_chain(['a"b', "c", "d\\", 'e\\"', "f\ng", ""])
    q = FinitePoset.from_dot(p.to_dot())
    assert q.labels == p.labels and q.covers == p.covers


@pytest.mark.parametrize("label", ["x < y", "a\nb", "a\rb", " a", "a ", "", "a <"])
def test_edge_list_rejects_labels_it_cannot_write(label):
    with pytest.raises(PosetError):
        text_chain(["p", label]).to_edge_list()


@given(st.lists(st.text(), min_size=1, max_size=6, unique=True))
def test_dot_round_trips_any_text_labels(labels):
    p = text_chain(labels)
    q = FinitePoset.from_dot(p.to_dot())
    assert q.labels == p.labels and q.covers == p.covers


@given(st.lists(st.text(), min_size=2, max_size=6, unique=True))
def test_edge_list_round_trips_or_refuses(labels):
    p = text_chain(labels)
    try:
        text = p.to_edge_list()
    except PosetError:
        return
    assert FinitePoset.from_edge_list(text).cover_labels() == p.cover_labels()


@given(st.lists(
    st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1),
    min_size=2, max_size=6, unique=True,
))
def test_edge_list_writes_labels_without_spaces_or_controls(labels):
    p = text_chain(labels)
    assert FinitePoset.from_edge_list(p.to_edge_list()).cover_labels() == p.cover_labels()
