"""
Named verification suites cross-checking every closed form in the
package against brute force, and the independent oracles they use.

The oracles re-derive a fact by a second route (the definitional
inversion count, the direct weak and Bruhat cover definitions, the
Euler-characteristic histogram over S_n, the boolean-count recursion,
the car-parking simulation, the listing construction of
pseudocomplements, the definitional cluster scan, both distributive
laws checked on every triple, ...); the library never calls them, so a
suite compares two implementations that share no code.  Ranks, interval
and boolean rows and the regular boolean algebra are read off one
Birkhoff embedding (posets.birkhoff); no check searches for isomorphisms.

Each suite is a table of Check entries, each declaring once the first
size and the hard cap of one check; a suite returns the CheckResult
records of its checks, and passes when every record does.  A check
that searches a family goes through _holds: a failing check's detail
is the repr of the first counterexample found.  A check that compares
a computed value with an expected one goes through _equal, whose detail
is "got vs expected".  n_max
lowers the cap of every sized check and never raises one; an entry with
first = cap = 1 does not depend on n and runs once, whatever n_max is.

A scan encodes each element once per n and then works on inversion
sequences or element indices, calling the code-level cores
(orders._mobius_codes, involutions._seq_check and _slow_climbing,
_decode) rather than the public wrappers; the validation those wrappers
add is covered by tests/test_sizes.py.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import counting, heyting, involutions, orders, parking, posets
from .permutations import (
    MeshPattern,
    _decode,
    _is_involution,
    all_inversion_sequences,
    all_permutations,
    avoids_classical,
    check_size,
    cycle_count,
    foata_image,
    from_inversion_sequence,
    identity,
    inversion_sequence,
    is_involution,
    mesh_contains,
    right_to_left_minima,
)

TABLE1 = {
    1: (1,),
    2: (2, 1),
    3: (6, 7, 4, 1),
    4: (24, 46, 49, 36, 18, 6, 1),
    5: (120, 326, 501, 562, 497, 354, 204, 94, 33, 8, 1),
}

TABLE2 = {
    1: (1,),
    2: (2, 1),
    3: (6, 7, 2),
    4: (24, 46, 29, 6),
    5: (120, 326, 329, 146, 24),
}


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(ok), "" if ok else detail)


def _equal(name: str, got, expected) -> CheckResult:
    """Passes when got == expected; otherwise fails showing both."""
    return _check(name, got == expected, f"{got} vs {expected}")


def _holds(name: str, counterexamples: Iterable) -> CheckResult:
    """Passes when counterexamples yields nothing; otherwise fails with
    the repr of the first item, drawing no other."""
    for bad in counterexamples:
        return CheckResult(name, False, repr(bad))
    return CheckResult(name, True)


class Check(NamedTuple):
    """One check of a suite: run(n) returns its results at size n, for
    n from first up to cap (or n_max, if smaller)."""
    first: int
    cap: int
    run: Callable[[int], list[CheckResult]]


def _run_checks(checks: Sequence[Check], n_max: int) -> list[CheckResult]:
    """Every check of a table in turn, each at its sizes in increasing order."""
    check_size(n_max, name="n_max")
    out = []
    for check in checks:
        for n in range(check.first, min(check.cap, n_max) + 1):
            out.extend(check.run(n))
    return out


# ---------------------------------------------------------------------------
# Oracles


def round_trip_failures(n: int) -> Iterator[tuple[int, ...]]:
    """Yield each code x of size n that decode then encode does not return.

    None at all makes decode a bijection from the box onto S_n: it is
    injective, since encode undoes it, and n! distinct permutations of
    size n are all of S_n.
    """
    return (x for x in all_inversion_sequences(n)
            if inversion_sequence(from_inversion_sequence(x)) != x)


def inversion_sequence_by_counting(w) -> tuple[int, ...]:
    """x_i counted from the definition, the values smaller than i that
    appear after i in w, in O(n^2) steps."""
    x = [0] * len(w)
    for p, i in enumerate(w):
        x[i - 1] = len([j for j in w[p + 1:] if j < i])
    return tuple(x)


@lru_cache(maxsize=None)
def _boolean_by_rank_recursive(n: int) -> tuple[int, ...]:
    """b(n,k) = n b(n-1,k) + (n-1) b(n-1,k-1), with b(1,0) = 1."""
    if n == 1:
        return (1,)
    at = (0, *_boolean_by_rank_recursive(n - 1), 0)  # at[k + 1] = b(n-1, k)
    return tuple(n * at[k + 1] + (n - 1) * at[k] for k in range(n))


def pseudocomplement_by_listing(v):
    """~v built from the one-line notation: the right-to-left minima of v
    in decreasing order, then the remaining values in increasing order."""
    minima = sorted(right_to_left_minima(v), reverse=True)
    rest = sorted(set(v) - set(minima))
    return tuple(minima + rest)


def parking_simulation(prefs: Sequence[int]) -> bool:
    """Car i parks at the first free spot >= p_i; the preferences form a
    parking function iff every car parks."""
    p = tuple(prefs)
    n = len(p)
    occupied = [False] * (n + 1)
    for pref in p:
        spot = pref
        while spot <= n and occupied[spot]:
            spot += 1
        if spot > n:
            return False
        occupied[spot] = True
    return True


def clusters_by_definition(y: Sequence[int]) -> list[tuple[int, int]]:
    """The clusters of y from their definition: every interval [a, b]
    with y_{a+j} >= j that extends neither left nor right, each tested
    by an O(n) scan, so O(n^3) in all."""
    n = len(y)

    def holds(a: int, b: int) -> bool:
        if a < 1 or b > n:
            return False
        return all(y[a + j - 1] >= j for j in range(b - a + 1))

    found = set()
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            if holds(a, b) and not holds(a - 1, b) and not holds(a, b + 1):
                found.add((a, b))
    return sorted(found)


def is_distributive_by_triples(poset: posets.FinitePoset) -> bool:
    """Whether poset is a lattice satisfying both distributive laws,
    checked on every triple from its join and meet tables: O(n^3)."""
    if not poset.is_lattice():
        return False
    rng = range(poset.n)
    lub = [[poset.join(s, t) for t in rng] for s in rng]
    glb = [[poset.meet(s, t) for t in rng] for s in rng]
    for s in rng:
        ls, gs = lub[s], glb[s]
        for t in rng:
            lst, gst, glb_t, lub_t = ls[t], gs[t], glb[t], lub[t]
            for u in rng:
                if ls[glb_t[u]] != glb[lst][ls[u]]:
                    return False
                if gs[lub_t[u]] != lub[gst][gs[u]]:
                    return False
    return True


def _rise_transpositions(v) -> dict:
    """v with the entries of one rise v[a] < v[b], a < b, swapped, mapped
    to the positions (a, b): every candidate upper cover in the middle,
    weak and Bruhat orders."""
    out = {}
    for a, b in itertools.combinations(range(len(v)), 2):
        if v[a] < v[b]:
            word = list(v)
            word[a], word[b] = word[b], word[a]
            out[tuple(word)] = (a, b)
    return out


# ---------------------------------------------------------------------------
# bijection


def _encode_checks(n: int) -> list[CheckResult]:
    # One encode of each w serves both checks.
    perms = all_permutations(n)
    codes = list(map(inversion_sequence, perms))
    return [
        _holds(f"encode matches the definition n={n}",
               (w for w, x in zip(perms, codes) if x != inversion_sequence_by_counting(w))),
        _holds(f"RL-minima are the zero coordinates n={n}",
               (w for w, x in zip(perms, codes)
                if right_to_left_minima(w) != {i for i, c in enumerate(x, 1) if c == 0})),
    ]


def _foata_check(n: int) -> list[CheckResult]:
    # first_with maps each image to the first w that has it, so a w whose
    # image repeats an earlier one is a counterexample too.
    first_with = {}
    return [_holds(f"Foata bijection n={n}", (
        w for w in all_permutations(n)
        if first_with.setdefault(img := foata_image(w), w) != w
        or cycle_count(w) != len(right_to_left_minima(img))
    ))]


BIJECTION = (
    Check(1, 8, lambda n: [_holds(f"round-trip bijection n={n}", round_trip_failures(n))]),
    Check(1, 7, _encode_checks),
    Check(1, 6, _foata_check),
)


def suite_bijection(n_max: int = 7) -> list[CheckResult]:
    return _run_checks(BIJECTION, n_max)


# ---------------------------------------------------------------------------
# sandwich


def _sandwich_checks(n: int) -> list[CheckResult]:
    # The three posets share the label order of all_permutations(n).
    weak = orders.weak_poset(n)._above
    middle = orders.middle_poset(n)._above
    bruhat = orders.bruhat_poset(n)._above
    perms = all_permutations(n)

    def differs_on_avoiders(pattern, other):
        avoiders = [i for i, w in enumerate(perms) if avoids_classical(w, pattern)]
        mask = sum(1 << i for i in avoiders)
        return (perms[i] for i in avoiders if (middle[i] ^ other[i]) & mask)

    return [
        _holds(f"weak refined by middle n={n}",
               (w for i, w in enumerate(perms) if weak[i] & ~middle[i])),
        _holds(f"middle refined by Bruhat n={n}",
               (w for i, w in enumerate(perms) if middle[i] & ~bruhat[i])),
        _holds(f"middle = Bruhat on 213-avoiders n={n}", differs_on_avoiders((2, 1, 3), bruhat)),
        _holds(f"middle = weak on 132-avoiders n={n}", differs_on_avoiders((1, 3, 2), weak)),
    ]


SANDWICH = (Check(1, 6, _sandwich_checks),)


def suite_sandwich(n_max: int = 6) -> list[CheckResult]:
    return _run_checks(SANDWICH, n_max)


# ---------------------------------------------------------------------------
# mesh


def _rise_count_examples(_n: int) -> list[CheckResult]:
    rise = (1, 2)
    return [
        _equal("1423 classical rise count is 4",
               mesh_contains((1, 4, 2, 3), MeshPattern(rise)), 4),
        _equal("1423 meshed rise count is 3",
               mesh_contains((1, 4, 2, 3), MeshPattern(rise, {(1, 0), (1, 1)})), 3),
    ]


def _cover_characterizations(n: int) -> list[CheckResult]:
    # The direct cover definitions: a weak cover swaps a rise in adjacent
    # positions, a Bruhat cover a rise whose swap adds exactly one
    # inversion (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.1).
    def mismatches(v):
        swaps = _rise_transpositions(v)
        inversions = sum(inversion_sequence_by_counting(v))
        mid = set(orders.upper_covers(v))
        wrong = [
            kind for kind, rise, covers in (
                ("middle", orders.MIDDLE_RISE, mid),
                ("weak", orders.WEAK_RISE, {w for w, (a, b) in swaps.items() if b == a + 1}),
                ("bruhat", orders.BRUHAT_RISE,
                 {w for w in swaps if sum(inversion_sequence_by_counting(w)) == inversions + 1}),
            )
            if set(orders._rise_swaps(v, rise)) != covers
        ]
        if any(orders.cover_mesh_witness(v, w) is None for w in mid):
            wrong.append("witness")
        return wrong

    return [_holds(f"cover/mesh characterizations n={n}",
                   ((v, wrong) for v in all_permutations(n) if (wrong := mismatches(v))))]


MESH = (
    Check(1, 1, _rise_count_examples),
    Check(1, 6, _cover_characterizations),
)


def suite_mesh(n_max: int = 6) -> list[CheckResult]:
    return _run_checks(MESH, n_max)


# ---------------------------------------------------------------------------
# tables


def _published_rows(n: int) -> list[CheckResult]:
    return [
        _equal(f"interval counts by rank match the published row n={n}",
               counting.intervals_by_rank(n), TABLE1[n]),
        _equal(f"boolean counts by rank match the published row n={n}",
               counting.boolean_by_rank(n), TABLE2[n]),
    ]


def _row_totals(n: int) -> list[CheckResult]:
    ranked, boolean = counting.intervals_by_rank(n), counting.boolean_by_rank(n)
    return [
        _equal(f"rank row sums to total interval count n={n}",
               sum(ranked), counting.interval_count_total(n)),
        _equal(f"boolean row sums to (2n-1)!! n={n}",
               sum(boolean), counting.boolean_interval_total(n)),
        _equal(f"rank-0 intervals are the n! elements n={n}",
               (ranked[0], boolean[0]), (math.factorial(n),) * 2),
    ]


def _reflection_length_check(n: int) -> list[CheckResult]:
    cover_count = counting.covering_relation_count(n)
    reflection_sum = sum(n - cycle_count(w) for w in all_permutations(n))
    return [_equal(f"cover count equals total reflection length n={n}",
                   cover_count, reflection_sum)]


def _euler_histogram_check(n: int) -> list[CheckResult]:
    # Counted as n - |RLmin(w)|, the right-to-left non-minima, so that
    # the row does not come from counting.
    histogram = [0] * n
    for w in all_permutations(n):
        histogram[n - len(right_to_left_minima(w))] += 1
    return [_equal(f"Euler characteristic histogram is the euler table row n={n}",
                   tuple(histogram), counting.euler_distribution(n))]


def _oracle_interval_checks(n: int) -> list[CheckResult]:
    # Off the Birkhoff embedding: rank(x) = |phi(x)|; [x, y] is boolean iff y is a join
    # of upper covers of x (EC1 3.4), so x is the bottom of C(c(x), k) of rank k.
    poset = orders.middle_poset(n)
    embedding = posets.birkhoff(poset.n, poset.covers)
    if embedding is None:
        return [_check(f"oracle poset is a distributive lattice n={n}", False)]
    ranks = [mask.bit_count() for mask in embedding[0]]
    at_rank: dict[int, int] = {}
    for x, r in enumerate(ranks):
        at_rank[r] = at_rank.get(r, 0) | 1 << x
    above = poset._above
    by_rank = [sum((above[x] & at_rank.get(r + k, 0)).bit_count() for x, r in enumerate(ranks))
               for k in range(math.comb(n, 2) + 1)]
    upper = Counter(lo for lo, _ in poset.covers)
    boolean_by_rank = [sum(math.comb(upper[x], k) for x in range(poset.n)) for k in range(n)]
    return [
        _equal(f"oracle-ranked intervals reproduce the closed row n={n}",
               tuple(by_rank), counting.intervals_by_rank(n)),
        _equal(f"oracle-verified boolean intervals reproduce the closed row n={n}",
               tuple(boolean_by_rank), counting.boolean_by_rank(n)),
        _equal(f"oracle interval total n={n}",
               sum(mask.bit_count() for mask in above), counting.interval_count_total(n)),
    ]


def _closed_formulas(_n: int) -> list[CheckResult]:
    limit = counting.COUNTING_LIMIT
    sizes = range(1, limit + 1)
    return [
        _holds(f"closed formula matches recursion for boolean counts to n={limit}",
               (n for n in sizes if counting.boolean_by_rank(n) != _boolean_by_rank_recursive(n))),
        _holds(f"interval total equals prod C(i+2,2) to n={limit}",
               (n for n in sizes if counting.interval_count_total(n)
                != math.prod(math.comb(i + 2, 2) for i in range(n)))),
        # Stops at n = 20: intervals_by_rank up to n = 50 would double the suite's time.
        _holds("cover count equals n!(n - H_n) to n=20",
               (n for n in range(2, 21) if counting.covering_relation_count(n)
                != math.factorial(n) * (n - sum(Fraction(1, i) for i in range(1, n + 1))))),
    ]


TABLES = (
    Check(1, 5, _published_rows),
    Check(1, 8, _row_totals),
    Check(1, 7, lambda n: [_equal(f"polynomial row reverses onto interval row n={n}",
                                  counting.polynomial_row(n)[::-1],
                                  counting.intervals_by_rank(n))]),
    Check(2, 7, _reflection_length_check),
    Check(1, 7, _euler_histogram_check),
    Check(1, 6, _oracle_interval_checks),
    Check(1, 1, _closed_formulas),
)


def suite_tables(n_max: int = 8) -> list[CheckResult]:
    return _run_checks(TABLES, n_max)


# ---------------------------------------------------------------------------
# mobius


def _mobius_pairs_check(n: int) -> list[CheckResult]:
    poset = orders.middle_poset(n)
    labels = poset.labels
    codes = list(map(inversion_sequence, labels))
    mobius = orders._mobius_codes
    return [_holds(f"closed-form Moebius matches oracle on all pairs n={n}",
                   ((labels[i], labels[j]) for i, x in enumerate(codes) for j, y in enumerate(codes)
                    if mobius(x, y) != poset.mobius(i, j)))]


def _upper_covers_check(n: int) -> list[CheckResult]:
    poset = orders.middle_poset(n)
    labels = poset.labels
    by_swaps = {(v, w) for v in labels for w in orders.upper_covers(v)}
    by_oracle = {(labels[i], labels[j]) for i, j in poset.covers}
    return [_holds(f"upper covers are the covers of the coordinate order n={n}",
                   sorted(by_swaps ^ by_oracle))]


def _distributive_lattice_check(n: int) -> list[CheckResult]:
    # From the permutation-side cover swaps alone: at n = 8 a bitset
    # poset would need ~400 MB of masks.
    perms = all_permutations(n)
    index = {w: i for i, w in enumerate(perms)}
    covers = [(i, index[u]) for i, w in enumerate(perms) for u in orders.upper_covers(w)]
    return [_check(f"middle order is a distributive lattice n={n}",
                   posets.birkhoff(len(perms), covers) is not None,
                   f"{len(perms)} elements, {len(covers)} covers")]


def _triple_scan_check(n: int) -> list[CheckResult]:
    builders = {"middle": orders.middle_poset, "weak": orders.weak_poset,
                "bruhat": orders.bruhat_poset}
    return [_holds(f"distributivity certificate matches the triple scan n={n}",
                   (kind for kind, build in builders.items()
                    if (poset := build(n)).is_distributive() != is_distributive_by_triples(poset)))]


def _join_irreducibles_check(n: int) -> list[CheckResult]:
    ji = orders.join_irreducibles(n)
    poset = orders.middle_poset(n)
    lower_covers = Counter(j for _, j in poset.covers)
    by_cover = {poset.labels[j] for j, count in lower_covers.items() if count == 1}
    miscounted = [] if len(ji) == n * (n - 1) // 2 else [("count", len(ji))]
    return [_holds(f"join-irreducibles are the single-cover elements n={n}",
                   sorted(set(ji) ^ by_cover) + miscounted)]


MOBIUS = (
    Check(1, 5, _mobius_pairs_check),
    Check(1, 6, _upper_covers_check),
    Check(1, 8, _distributive_lattice_check),
    Check(1, 4, _triple_scan_check),
    Check(1, 5, _join_irreducibles_check),
)


def suite_mobius(n_max: int = 5) -> list[CheckResult]:
    return _run_checks(MOBIUS, n_max)


# ---------------------------------------------------------------------------
# involutions


@lru_cache(maxsize=None)
def _involutions(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """all_involutions(n) and their codes, each made once for the checks below."""
    invs = involutions.all_involutions(n)
    return invs, tuple(map(inversion_sequence, invs))


@lru_cache(maxsize=None)
def _slow_codes(n: int) -> tuple[tuple[int, ...], ...]:
    """The codes of the slow-climbing involutions of size n, in order,
    found once for the checks below."""
    return tuple(filter(involutions._slow_climbing, _involutions(n)[1]))


def _generated_involutions_check(n: int) -> list[CheckResult]:
    invs, codes = _involutions(n)
    # () sorts before every code, so the first involution has no predecessor to fail.
    miscounted = [] if len(invs) == involutions.involution_count(n) else [("count", len(invs))]
    return [_holds(f"generated involutions are all involutions, in order n={n}", itertools.chain(
        (w for w, before, x in zip(invs, ((),) + codes, codes)
         if not is_involution(w) or before >= x),
        miscounted,
    ))]


def _involution_test_check(n: int) -> list[CheckResult]:
    # The check above shows these codes are every involution's.
    accepted = set(filter(involutions._seq_check, all_inversion_sequences(n)))
    return [_holds(f"inversion-sequence involution test n={n}",
                   sorted(accepted.symmetric_difference(_involutions(n)[1])))]


def _slow_climbing_blocks_check(n: int) -> list[CheckResult]:
    # A slow-climber splits into blocks 0, 1, ..., k-1 that concatenate
    # back to it; every other code is refused.  Conversely, the block
    # codes, the candidates of maximal_slow_climbing_below, are exactly
    # the codes of the slow-climbing involutions.
    def mismatch(x):
        try:
            blocks = involutions.slow_climb_decompose(x)
        except ValueError:
            return involutions.is_slow_climbing(x)
        return (not involutions.is_slow_climbing(x) or tuple(itertools.chain(*blocks)) != x
                or any(b != tuple(range(len(b))) for b in blocks))

    return [_holds(f"slow-climbing equals block form n={n}", itertools.chain(
        filter(mismatch, _involutions(n)[1]),
        sorted(set(involutions._block_codes(n)).symmetric_difference(_slow_codes(n))),
    ))]


def _slow_meets_check(n: int) -> list[CheckResult]:
    # The meet is the coordinatewise min of the codes, decoded once; a
    # failing pair is named by the public decoder.
    pairs = itertools.combinations(_slow_codes(n), 2)
    return [_holds(f"meets of slow-climbers stay slow-climbing n={n}", (
        (from_inversion_sequence(x), from_inversion_sequence(y)) for x, y in pairs
        if not (_is_involution(_decode(m := tuple(map(min, x, y))))
                and involutions._slow_climbing(m))
    ))]


def _one_pass_clusters_check(n: int) -> list[CheckResult]:
    return [_holds(f"one-pass clusters match the definition n={n}",
                   (x for x in all_inversion_sequences(n)
                    if involutions.clusters(x) != clusters_by_definition(x)))]


def _cluster_cover_check(n: int) -> list[CheckResult]:
    def tiles(cl):
        covered = {i for a, b in cl for i in range(a, b + 1)}
        nested = any(
            (a1 <= a2 and b2 <= b1) or (a2 <= a1 and b1 <= b2)
            for (a1, b1), (a2, b2) in itertools.combinations(cl, 2)
        )
        return covered == set(range(1, n + 1)) and not nested

    return [_holds(f"clusters cover [1,n] and are incomparable n={n}",
                   (x for x in all_inversion_sequences(n) if not tiles(involutions.clusters(x))))]


def _maximal_slow_climbers_check(n: int) -> list[CheckResult]:
    # Each m is a slow-climber below w, every slow-climber below w lies
    # below some m, and no m lies below another: m_w is exactly the set of
    # maximal slow-climbers below w.
    leq = orders._codes_leq
    slow = _slow_codes(n)
    slow_set = set(slow)

    def dominates(w, y):
        m_w = list(map(inversion_sequence, involutions.maximal_slow_climbing_below(w)))
        below = all(m in slow_set and leq(m, y) for m in m_w)
        covered = all(any(leq(x, m) for m in m_w) for x in slow if leq(x, y))
        antichain = not any(leq(a, b) for a, b in itertools.permutations(m_w, 2))
        return m_w and below and covered and antichain

    return [_holds(f"maximal slow-climbers dominate every slow-climber n={n}",
                   (w for w, y in zip(*_involutions(n))
                    if not dominates(w, y)))]


def _mobius_involution_check(n: int) -> list[CheckResult]:
    poset = involutions.involution_poset(n)
    bottom = poset.index_of(identity(n))
    return [_holds(f"involution Moebius closed form matches oracle n={n}",
                   (w for i, w in enumerate(poset.labels)
                    if involutions.mobius_involution_ideal(w) != poset.mobius(bottom, i)))]


def _boolean_ideal_check(n: int) -> list[CheckResult]:
    return [_holds(f"boolean-ideal Moebius consistency n={n}", (
        w for w, x in zip(*_involutions(n))
        if all(v in (0, 1) for v in x) and not any(a == b == 1 for a, b in zip(x, x[1:]))
        and involutions.mobius_involution_ideal(w) != orders.mobius_middle(identity(n), w)
    ))]


def _size_four_checks(n: int) -> list[CheckResult]:
    poset = involutions.involution_poset(n)
    return [
        _check("involutions of size 4 are not graded", not poset.is_graded()[0]),
        _check("involutions of size 4 are not a lattice", not poset.is_lattice()),
    ]


INVOLUTIONS = (
    Check(1, 8, _generated_involutions_check),
    Check(1, 8, _involution_test_check),
    Check(1, 8, _slow_climbing_blocks_check),
    Check(1, 7, _slow_meets_check),
    Check(1, 6, _one_pass_clusters_check),
    Check(1, 7, _cluster_cover_check),
    Check(2, 6, _maximal_slow_climbers_check),
    Check(1, 9, _mobius_involution_check),
    Check(1, 7, _boolean_ideal_check),
    Check(4, 4, _size_four_checks),
)


def suite_involutions(n_max: int = 8) -> list[CheckResult]:
    return _run_checks(INVOLUTIONS, n_max)


# ---------------------------------------------------------------------------
# heyting


def _worked_examples(_n: int) -> list[CheckResult]:
    v = (3, 6, 1, 5, 9, 2, 7, 8, 4)
    w = (6, 1, 4, 9, 2, 8, 5, 3, 7)
    return [
        _equal("worked relative pseudocomplement example",
               heyting.relative_pseudocomplement(v, w), (9, 8, 6, 4, 2, 1, 5, 3, 7)),
        _equal("worked pseudocomplement example",
               heyting.pseudocomplement(v), (4, 2, 1, 3, 5, 6, 7, 8, 9)),
    ]


def _heyting_arrow_checks(n: int) -> list[CheckResult]:
    # On inversion sequences, where the middle order is coordinatewise.
    seqs = list(all_inversion_sequences(n))
    arrow = {
        (x, y): inversion_sequence(heyting.relative_pseudocomplement(
            from_inversion_sequence(x), from_inversion_sequence(y)))
        for x in seqs for y in seqs
    }

    def not_the_maximum(x, y):
        valid = [z for z in seqs if all(min(a, c) <= b for a, b, c in zip(x, y, z))]
        best = tuple(max(col) for col in zip(*valid))
        return best not in valid or best != arrow[x, y]

    return [
        _holds(f"relative pseudocomplement is the scanned maximum n={n}",
               ((x, y) for x in seqs for y in seqs if not_the_maximum(x, y))),
        _holds(f"Heyting adjunction over all triples n={n}", (
            (x, z, y) for x in seqs for z in seqs
            for mz in [tuple(min(a, b) for a, b in zip(x, z))] for y in seqs
            if all(a <= b for a, b in zip(mz, y)) != all(a <= b for a, b in zip(z, arrow[x, y]))
        )),
    ]


def _pseudocomplement_checks(n: int) -> list[CheckResult]:
    # One pair of pseudocomplements of each p serves all three checks.
    negated = []
    for p in all_permutations(n):
        s = heyting.pseudocomplement(p)
        negated.append((p, s, heyting.pseudocomplement(s)))
    return [
        _holds(f"double negation inflates n={n}",
               (p for p, _, ss in negated if not orders.middle_leq(p, ss))),
        _holds(f"pseudocomplement matches the listing construction n={n}",
               (p for p, s, _ in negated if s != pseudocomplement_by_listing(p))),
        _holds(f"double-negation, coordinate and 132/231 regularity agree n={n}", (
            p for p, _, ss in negated
            if not (p == ss) == heyting.is_regular(p)
            == (avoids_classical(p, (1, 3, 2)) and avoids_classical(p, (2, 3, 1)))
        )),
    ]


def _regular_boolean_check(n: int) -> list[CheckResult]:
    # A distributive lattice is the down-sets of its J, which number 2^|J|
    # iff J is an antichain: it is then boolean of rank |J|.
    sub = heyting.regular_subposet(n)
    embedding = posets.birkhoff(sub.n, sub.covers)
    return [_equal(f"regular elements form a boolean algebra n={n}",
                   embedding and (len(embedding[1]), any(embedding[1]), sub.n),
                   (n - 1, False, 2 ** (n - 1)))]


HEYTING = (
    Check(1, 1, _worked_examples),
    Check(1, 4, _heyting_arrow_checks),
    Check(1, 6, _pseudocomplement_checks),
    Check(1, 8, lambda n: [_equal(f"2^(n-1) regular elements n={n}",
                                  len(heyting.regular_elements(n)), 2 ** (n - 1))]),
    Check(1, 8, _regular_boolean_check),
)


def suite_heyting(n_max: int = 6) -> list[CheckResult]:
    return _run_checks(HEYTING, n_max)


# ---------------------------------------------------------------------------
# parking


def _simulation_checks(n: int) -> list[CheckResult]:
    simulated = [(p, parking_simulation(p)) for p in itertools.product(range(1, n + 1), repeat=n)]
    parked = [p for p, parks in simulated if parks]
    return [
        _holds(f"sorted criterion matches car simulation n={n}",
               (p for p, parks in simulated if parking.is_parking_function(p) != parks)),
        # Each counterexample is a pair (generated, parked).
        _holds(f"generator yields the parking candidates in order n={n}",
               (pair for pair in itertools.zip_longest(parking._parking_functions(n), parked)
                if pair[0] != pair[1])),
    ]


def _rearrangements_check(n: int) -> list[CheckResult]:
    # The rearrangements of p depend only on sorted(p): simulate them once
    # per sorted class.
    @lru_cache(maxsize=None)
    def all_park(q):
        return all(map(parking_simulation, set(itertools.permutations(q))))

    return [_holds(f"rearrangements of parking functions park n={n}",
                   (p for p in parking.all_parking_functions(n) if not all_park(tuple(sorted(p)))))]


def _parking_lattice_checks(n: int) -> list[CheckResult]:
    out = []
    poset = parking.parking_poset(n)
    out.append(_check(f"parking poset with top is a lattice n={n}",
                      poset.is_lattice()))
    if n >= 3:
        quint = poset.find_pentagon()
        out.append(_check(f"parking lattice contains a pentagon n={n}",
                          quint is not None))
        out.append(_check(f"parking lattice is not distributive n={n}",
                          not poset.is_distributive()))
    return out


def _pentagon_witness_checks(n: int) -> list[CheckResult]:
    elements = parking.pentagon_witness(n)
    bottom, side, low, high, top = elements
    leq = parking.pf_leq
    members = set(elements)
    relations = (
        top is parking.TOP
        and all(parking.is_parking_function(p) for p in (bottom, side, low, high))
        and leq(low, high) and not leq(high, low)
        and not leq(side, low) and not leq(low, side)
        and not leq(side, high) and not leq(high, side)
        and parking.pf_meet(side, low) == bottom == parking.pf_meet(side, high)
        and parking.pf_join(side, low) is top is parking.pf_join(side, high)
    )
    return [
        _check(f"pentagon witness is isomorphic to N5 n={n}",
               posets.FinitePoset.from_leq(elements, leq)._is_n5((0, 1, 2, 3, 4))),
        _holds(f"pentagon witness is closed under meet and join n={n}",
               ((a, b) for a, b in itertools.combinations(elements, 2)
                if not {parking.pf_meet(a, b), parking.pf_join(a, b)} <= members)),
        _check(f"pentagon witness has the N5 relations n={n}", relations),
    ]


PARKING = (
    Check(1, 5, _simulation_checks),
    Check(1, 5, _rearrangements_check),
    Check(1, 7, lambda n: [_equal(f"(n+1)^(n-1) parking functions n={n}",
                                  sum(1 for _ in parking._parking_functions(n)),
                                  (n + 1) ** (n - 1))]),
    Check(1, 4, _parking_lattice_checks),
    Check(3, 7, _pentagon_witness_checks),
)


def suite_parking(n_max: int = 7) -> list[CheckResult]:
    return _run_checks(PARKING, n_max)


# ---------------------------------------------------------------------------


SUITES = {
    "bijection": suite_bijection,
    "sandwich": suite_sandwich,
    "mesh": suite_mesh,
    "tables": suite_tables,
    "mobius": suite_mobius,
    "involutions": suite_involutions,
    "heyting": suite_heyting,
    "parking": suite_parking,
}


def run_suite(name: str, n_max: int | None = None) -> list[CheckResult]:
    """The results of one suite, or of every suite for "all", at n_max
    (each suite's default when None)."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    names = SUITES if name == "all" else [name]
    args = () if n_max is None else (n_max,)
    return [r for suite in names for r in SUITES[suite](*args)]
