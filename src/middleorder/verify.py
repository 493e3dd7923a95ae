"""
Named verification suites cross-checking every closed form in the
package against brute force, and the independent oracles they use.

The oracles re-derive a fact by a second route (the definitional
inversion count, the direct weak and Bruhat cover definitions, the
Euler-characteristic histogram over S_n, the boolean-count recursion,
the car-parking simulation, the listing construction of
pseudocomplements, the definitional cluster scan, both distributive
laws checked on every triple, ...); the library never calls them, so a
suite compares two implementations that share no code.

Each suite is a table of Check entries, each declaring once the first
size and the hard cap of one check; a suite returns the CheckResult
records of its checks, and passes when every record does.  Failures
carry a counterexample in the detail field.  n_max lowers the cap of
every sized check and never raises one; an entry with first = cap = 1
does not depend on n and runs once, whatever n_max is.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from . import counting, heyting, involutions, orders, parking, posets
from .permutations import (
    MeshPattern,
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


def round_trip_all(n: int) -> bool:
    """Exhaustively check that encode/decode is a bijection S_n <-> box."""
    seen = set()
    for x in all_inversion_sequences(n):
        w = from_inversion_sequence(x)
        if inversion_sequence(w) != x:
            return False
        seen.add(w)
    return len(seen) == math.factorial(n)


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
    prev = _boolean_by_rank_recursive(n - 1)

    def at(k: int) -> int:
        return prev[k] if 0 <= k < len(prev) else 0

    return tuple(n * at(k) + (n - 1) * at(k - 1) for k in range(n))


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
            lst, gst = ls[t], gs[t]
            glb_t = glb[t]
            lub_t = lub[t]
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
    bad_code = bad_minima = None
    for w in all_permutations(n):
        x = inversion_sequence(w)
        if bad_code is None and x != inversion_sequence_by_counting(w):
            bad_code = w
        zeros = {i for i in range(1, n + 1) if x[i - 1] == 0}
        if bad_minima is None and right_to_left_minima(w) != zeros:
            bad_minima = w
    return [
        _check(f"encode matches the definition n={n}", bad_code is None, f"w={bad_code}"),
        _check(f"RL-minima are the zero coordinates n={n}",
               bad_minima is None, f"w={bad_minima}"),
    ]


def _foata_check(n: int) -> list[CheckResult]:
    images = set()
    bad = None
    for w in all_permutations(n):
        img = foata_image(w)
        images.add(img)
        if cycle_count(w) != len(right_to_left_minima(img)):
            bad = w
            break
    ok = bad is None and len(images) == math.factorial(n)
    return [_check(f"Foata bijection n={n}", ok, f"w={bad}")]


BIJECTION = (
    Check(1, 8, lambda n: [_check(f"round-trip bijection n={n}", round_trip_all(n))]),
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
    index = {w: i for i, w in enumerate(perms)}
    ok_wm = all(weak[i] & ~middle[i] == 0 for i in range(len(perms)))
    ok_mb = all(middle[i] & ~bruhat[i] == 0 for i in range(len(perms)))

    avoiders_213 = [w for w in perms if avoids_classical(w, (2, 1, 3))]
    mask_213 = sum(1 << index[w] for w in avoiders_213)
    ok_213 = all(middle[index[w]] & mask_213 == bruhat[index[w]] & mask_213
                 for w in avoiders_213)

    avoiders_132 = [w for w in perms if avoids_classical(w, (1, 3, 2))]
    mask_132 = sum(1 << index[w] for w in avoiders_132)
    ok_132 = all(middle[index[w]] & mask_132 == weak[index[w]] & mask_132
                 for w in avoiders_132)
    return [
        _check(f"weak refined by middle n={n}", ok_wm),
        _check(f"middle refined by Bruhat n={n}", ok_mb),
        _check(f"middle = Bruhat on 213-avoiders n={n}", ok_213),
        _check(f"middle = weak on 132-avoiders n={n}", ok_132),
    ]


SANDWICH = (Check(1, 6, _sandwich_checks),)


def suite_sandwich(n_max: int = 6) -> list[CheckResult]:
    return _run_checks(SANDWICH, n_max)


# ---------------------------------------------------------------------------
# mesh


def _rise_count_examples(_n: int) -> list[CheckResult]:
    rise = (1, 2)
    return [
        _check("1423 classical rise count is 4",
               mesh_contains((1, 4, 2, 3), MeshPattern(rise)) == 4),
        _check("1423 meshed rise count is 3",
               mesh_contains((1, 4, 2, 3), MeshPattern(rise, {(1, 0), (1, 1)})) == 3),
    ]


def _cover_characterizations(n: int) -> list[CheckResult]:
    # The direct cover definitions: a weak cover swaps a rise in adjacent
    # positions, a Bruhat cover a rise whose swap adds exactly one
    # inversion (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.1).
    bad = None
    for v in all_permutations(n):
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
        if wrong:
            bad = (v, wrong)
            break
    return [_check(f"cover/mesh characterizations n={n}", bad is None, f"{bad}")]


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
        _check(f"interval counts by rank match the published row n={n}",
               counting.intervals_by_rank(n) == TABLE1[n], f"{counting.intervals_by_rank(n)}"),
        _check(f"boolean counts by rank match the published row n={n}",
               counting.boolean_by_rank(n) == TABLE2[n], f"{counting.boolean_by_rank(n)}"),
    ]


def _row_totals(n: int) -> list[CheckResult]:
    return [
        _check(f"rank row sums to total interval count n={n}",
               sum(counting.intervals_by_rank(n)) == counting.interval_count_total(n)),
        _check(f"boolean row sums to (2n-1)!! n={n}",
               sum(counting.boolean_by_rank(n)) == counting.boolean_interval_total(n)),
        _check(f"rank-0 intervals are the n! elements n={n}",
               counting.intervals_by_rank(n)[0] == math.factorial(n)
               and counting.boolean_by_rank(n)[0] == math.factorial(n)),
    ]


def _reflection_length_check(n: int) -> list[CheckResult]:
    cover_count = counting.covering_relation_count(n)
    reflection_sum = sum(n - cycle_count(w) for w in all_permutations(n))
    return [_check(f"cover count equals total reflection length n={n}",
                   cover_count == reflection_sum, f"{cover_count} vs {reflection_sum}")]


def _euler_histogram_check(n: int) -> list[CheckResult]:
    # Counted as n - |RLmin(w)|, the right-to-left non-minima, so that
    # the row does not come from counting.
    histogram = [0] * n
    for w in all_permutations(n):
        histogram[n - len(right_to_left_minima(w))] += 1
    return [_check(f"Euler characteristic histogram is the euler table row n={n}",
                   tuple(histogram) == counting.euler_distribution(n), f"{histogram}")]


def _oracle_interval_checks(n: int) -> list[CheckResult]:
    poset = orders.middle_poset(n)
    graded, ranks = poset.is_graded()
    intervals = poset.enumerate_intervals()
    by_rank = [0] * (math.comb(n, 2) + 1)
    boolean_by_rank = [0] * n
    for i, j in intervals:
        k = ranks[j] - ranks[i]
        by_rank[k] += 1
        size = len(poset.interval_elements(i, j))
        if size == 2**k:
            sub = poset.induced_subposet(
                [poset.labels[t] for t in poset.interval_elements(i, j)]
            )
            if sub.are_isomorphic(posets.boolean_lattice(k)):
                boolean_by_rank[k] += 1
    return [
        _check(f"oracle-ranked intervals reproduce the closed row n={n}",
               tuple(by_rank) == counting.intervals_by_rank(n),
               f"{by_rank}"),
        _check(f"oracle-verified boolean intervals reproduce the closed row n={n}",
               tuple(boolean_by_rank) == counting.boolean_by_rank(n),
               f"{boolean_by_rank}"),
        _check(f"oracle interval total n={n}",
               len(intervals) == counting.interval_count_total(n)),
    ]


def _closed_formulas(_n: int) -> list[CheckResult]:
    out = []
    limit = counting.COUNTING_LIMIT
    bad = next((n for n in range(1, limit + 1)
                if counting.boolean_by_rank(n) != _boolean_by_rank_recursive(n)), None)
    out.append(_check(f"closed formula matches recursion for boolean counts to n={limit}",
                      bad is None, f"n={bad}"))
    bad = next((n for n in range(1, limit + 1)
                if counting.interval_count_total(n)
                != math.prod(math.comb(i + 2, 2) for i in range(n))), None)
    out.append(_check(f"interval total equals prod C(i+2,2) to n={limit}",
                      bad is None, f"n={bad}"))
    # Stops at n = 20: intervals_by_rank up to n = 50 would double the suite's time.
    bad = next((n for n in range(2, 21)
                if counting.covering_relation_count(n) != Fraction(math.factorial(n))
                * (n - sum(Fraction(1, i) for i in range(1, n + 1)))), None)
    out.append(_check("cover count equals n!(n - H_n) to n=20", bad is None, f"n={bad}"))
    return out


TABLES = (
    Check(1, 5, _published_rows),
    Check(1, 8, _row_totals),
    Check(1, 7, lambda n: [_check(f"polynomial row reverses onto interval row n={n}",
                                  tuple(reversed(counting.polynomial_row(n)))
                                  == counting.intervals_by_rank(n))]),
    Check(2, 7, _reflection_length_check),
    Check(1, 7, _euler_histogram_check),
    Check(1, 5, _oracle_interval_checks),
    Check(1, 1, _closed_formulas),
)


def suite_tables(n_max: int = 8) -> list[CheckResult]:
    return _run_checks(TABLES, n_max)


# ---------------------------------------------------------------------------
# mobius


def _mobius_pairs_check(n: int) -> list[CheckResult]:
    poset = orders.middle_poset(n)
    bad = None
    for i, v in enumerate(poset.labels):
        for j, w in enumerate(poset.labels):
            if orders.mobius_middle(v, w) != poset.mobius(i, j):
                bad = (v, w)
                break
        if bad:
            break
    return [_check(f"closed-form Moebius matches oracle on all pairs n={n}",
                   bad is None, f"{bad}")]


def _upper_covers_check(n: int) -> list[CheckResult]:
    poset = orders.middle_poset(n)
    by_swaps = {
        (i, poset.index_of(w)) for i, v in enumerate(poset.labels) for w in orders.upper_covers(v)
    }
    return [_check(f"upper covers are the covers of the coordinate order n={n}",
                   by_swaps == poset.covers)]


def _distributive_lattice_check(n: int) -> list[CheckResult]:
    # From the permutation-side cover swaps alone: at n = 8 a bitset
    # poset would need ~400 MB of masks.
    perms = all_permutations(n)
    index = {w: i for i, w in enumerate(perms)}
    covers = [(i, index[u]) for i, w in enumerate(perms) for u in orders.upper_covers(w)]
    return [_check(f"middle order is a distributive lattice n={n}",
                   posets.is_distributive_lattice(len(perms), covers),
                   f"{len(perms)} elements, {len(covers)} covers")]


def _triple_scan_check(n: int) -> list[CheckResult]:
    bad = [kind for kind, poset in (("middle", orders.middle_poset(n)),
                                    ("weak", orders.weak_poset(n)),
                                    ("bruhat", orders.bruhat_poset(n)))
           if poset.is_distributive() != is_distributive_by_triples(poset)]
    return [_check(f"distributivity certificate matches the triple scan n={n}",
                   not bad, f"{bad}")]


def _join_irreducibles_check(n: int) -> list[CheckResult]:
    ji = orders.join_irreducibles(n)
    poset = orders.middle_poset(n)
    lower_covers = Counter(j for _, j in poset.covers)
    by_cover = {poset.labels[j] for j, count in lower_covers.items() if count == 1}
    ok = set(ji) == by_cover and len(ji) == n * (n - 1) // 2
    return [_check(f"join-irreducibles are the single-cover elements n={n}", ok)]


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
def _involution_codes(n: int) -> tuple[tuple[int, ...], ...]:
    """The codes of all_involutions(n), encoded once for the two checks below."""
    return tuple(inversion_sequence(w) for w in involutions.all_involutions(n))


def _generated_involutions_check(n: int) -> list[CheckResult]:
    invs = involutions.all_involutions(n)
    codes = _involution_codes(n)
    ok = (
        all(map(is_involution, invs))
        and all(a < b for a, b in zip(codes, codes[1:]))
        and len(invs) == involutions.involution_count(n)
    )
    return [_check(f"generated involutions are all involutions, in order n={n}", ok)]


def _involution_test_check(n: int) -> list[CheckResult]:
    # The check above shows these codes are every involution's, in order.
    encoded = list(_involution_codes(n))
    accepted = [x for x in all_inversion_sequences(n) if involutions.involution_seq_check(x)]
    wrong = set(accepted).symmetric_difference(encoded)
    return [_check(f"inversion-sequence involution test n={n}",
                   accepted == encoded, f"x={min(wrong, default=None)}")]


def _slow_climbing_blocks_check(n: int) -> list[CheckResult]:
    bad = None
    for w in involutions.all_involutions(n):
        x = inversion_sequence(w)
        slow = involutions.is_slow_climbing(x)
        try:
            blocks = involutions.slow_climb_decompose(x)
            decomposed = True
            joined = tuple(v for block in blocks for v in block)
            if joined != x or any(b != tuple(range(len(b))) for b in blocks):
                bad = x
                break
        except ValueError:
            decomposed = False
        if slow != decomposed:
            bad = x
            break
    return [_check(f"slow-climbing equals block form n={n}", bad is None, f"{bad}")]


def _slow_meets_check(n: int) -> list[CheckResult]:
    bad = None
    slow_invs = [
        w for w in involutions.all_involutions(n)
        if involutions.is_slow_climbing(inversion_sequence(w))
    ]
    for v, w in itertools.combinations(slow_invs, 2):
        m = orders.meet(v, w)
        if not (is_involution(m) and involutions.is_slow_climbing(inversion_sequence(m))):
            bad = (v, w)
            break
    return [_check(f"meets of slow-climbers stay slow-climbing n={n}",
                   bad is None, f"{bad}")]


def _one_pass_clusters_check(n: int) -> list[CheckResult]:
    bad = next(
        (x for x in all_inversion_sequences(n)
         if involutions.clusters(x) != clusters_by_definition(x)),
        None,
    )
    return [_check(f"one-pass clusters match the definition n={n}",
                   bad is None, f"{bad}")]


def _cluster_cover_check(n: int) -> list[CheckResult]:
    bad = None
    for x in all_inversion_sequences(n):
        cl = involutions.clusters(x)
        covered = set()
        for a, b in cl:
            covered.update(range(a, b + 1))
        nested = any(
            (a1 <= a2 and b2 <= b1) or (a2 <= a1 and b1 <= b2)
            for (a1, b1), (a2, b2) in itertools.combinations(cl, 2)
        )
        if covered != set(range(1, n + 1)) or nested:
            bad = x
            break
    return [_check(f"clusters cover [1,n] and are incomparable n={n}",
                   bad is None, f"{bad}")]


def _maximal_slow_climbers_check(n: int) -> list[CheckResult]:
    bad = None
    slow_pool = [
        v for v in involutions.all_involutions(n)
        if involutions.is_slow_climbing(inversion_sequence(v))
    ]
    for w in involutions.all_involutions(n):
        m_w = involutions.maximal_slow_climbing_below(w)
        below = [v for v in slow_pool if orders.middle_leq(v, w)]
        covered = all(any(orders.middle_leq(v, m) for m in m_w) for v in below)
        antichain = not any(
            orders.middle_leq(a, b)
            for a, b in itertools.permutations(m_w, 2)
        )
        if not (m_w and covered and antichain):
            bad = w
            break
    return [_check(f"maximal slow-climbers dominate every slow-climber n={n}",
                   bad is None, f"{bad}")]


def _mobius_involution_check(n: int) -> CheckResult:
    poset = involutions.involution_poset(n)
    bottom = poset.index_of(identity(n))
    bad = None
    for i, w in enumerate(poset.labels):
        if involutions.mobius_involution_ideal(w) != poset.mobius(bottom, i):
            bad = w
            break
    return _check(f"involution Moebius closed form matches oracle n={n}",
                  bad is None, f"w={bad}")


def _boolean_ideal_check(n: int) -> list[CheckResult]:
    bad = None
    for w in involutions.all_involutions(n):
        x = inversion_sequence(w)
        if all(v in (0, 1) for v in x) and not any(
            a == b == 1 for a, b in zip(x, x[1:])
        ):
            if involutions.mobius_involution_ideal(w) != orders.mobius_middle(identity(n), w):
                bad = w
                break
    return [_check(f"boolean-ideal Moebius consistency n={n}", bad is None, f"{bad}")]


def _size_four_checks(n: int) -> list[CheckResult]:
    poset = involutions.involution_poset(n)
    graded, witness = poset.is_graded()
    return [
        _check("involutions of size 4 are not graded", not graded),
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
    Check(1, 9, lambda n: [_mobius_involution_check(n)]),
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
        _check("worked relative pseudocomplement example",
               heyting.relative_pseudocomplement(v, w) == (9, 8, 6, 4, 2, 1, 5, 3, 7)),
        _check("worked pseudocomplement example",
               heyting.pseudocomplement(v) == (4, 2, 1, 3, 5, 6, 7, 8, 9)),
    ]


def _heyting_max_property(n: int) -> CheckResult:
    seqs = list(all_inversion_sequences(n))
    bad = None
    for x in seqs:
        for y in seqs:
            valid = [
                z for z in seqs
                if all(min(a, c) <= b for a, b, c in zip(x, y, z))
            ]
            best = tuple(max(col) for col in zip(*valid))
            if best not in valid:
                bad = (x, y)
                break
            expected = inversion_sequence(
                heyting.relative_pseudocomplement(
                    from_inversion_sequence(x), from_inversion_sequence(y)
                )
            )
            if best != expected:
                bad = (x, y)
                break
        if bad:
            break
    return _check(f"relative pseudocomplement is the scanned maximum n={n}",
                  bad is None, f"{bad}")


def _heyting_adjunction(n: int) -> CheckResult:
    seqs = list(all_inversion_sequences(n))
    arrow = {
        (x, y): inversion_sequence(heyting.relative_pseudocomplement(
            from_inversion_sequence(x), from_inversion_sequence(y)))
        for x in seqs for y in seqs
    }
    bad = None
    for x in seqs:
        for z in seqs:
            mz = tuple(min(a, b) for a, b in zip(x, z))
            for y in seqs:
                lhs = all(a <= b for a, b in zip(mz, y))
                rhs = all(a <= b for a, b in zip(z, arrow[(x, y)]))
                if lhs != rhs:
                    bad = (x, z, y)
                    break
            if bad:
                break
        if bad:
            break
    return _check(f"Heyting adjunction over all triples n={n}", bad is None, f"{bad}")


def _pseudocomplement_checks(n: int) -> list[CheckResult]:
    inflates = listing = criteria = None
    for p in all_permutations(n):
        s = heyting.pseudocomplement(p)
        ss = heyting.pseudocomplement(s)
        if inflates is None and not orders.middle_leq(p, ss):
            inflates = p
        if listing is None and s != pseudocomplement_by_listing(p):
            listing = p
        avoids = avoids_classical(p, (1, 3, 2)) and avoids_classical(p, (2, 3, 1))
        if criteria is None and not (p == ss) == heyting.is_regular(p) == avoids:
            criteria = p
    return [
        _check(f"double negation inflates n={n}", inflates is None, f"{inflates}"),
        _check(f"pseudocomplement matches the listing construction n={n}",
               listing is None, f"{listing}"),
        _check(f"double-negation, coordinate and 132/231 regularity agree n={n}",
               criteria is None, f"{criteria}"),
    ]


HEYTING = (
    Check(1, 1, _worked_examples),
    Check(1, 4, lambda n: [_heyting_max_property(n), _heyting_adjunction(n)]),
    Check(1, 6, _pseudocomplement_checks),
    Check(1, 8, lambda n: [_check(f"2^(n-1) regular elements n={n}",
                                  len(heyting.regular_elements(n)) == 2 ** (n - 1))]),
    Check(1, 5, lambda n: [_check(f"regular elements form a boolean algebra n={n}",
                                  heyting.regular_subposet(n).are_isomorphic(
                                      posets.boolean_lattice(n - 1)))]),
)


def suite_heyting(n_max: int = 6) -> list[CheckResult]:
    return _run_checks(HEYTING, n_max)


# ---------------------------------------------------------------------------
# parking


def _simulation_checks(n: int) -> list[CheckResult]:
    bad = None
    parked = []
    for p in itertools.product(range(1, n + 1), repeat=n):
        parks = parking_simulation(p)
        if parking.is_parking_function(p) != parks:
            bad = p
            break
        if parks:
            parked.append(p)
    first_diff = next(
        (pair for pair in itertools.zip_longest(parking._parking_functions(n), parked)
         if pair[0] != pair[1]),
        None,
    )
    return [
        _check(f"sorted criterion matches car simulation n={n}", bad is None, f"{bad}"),
        _check(f"generator yields the parking candidates in order n={n}",
               bad is None and first_diff is None,
               f"(generated, parked)={first_diff}"),
    ]


def _rearrangements_check(n: int) -> list[CheckResult]:
    bad = None
    for p in parking.all_parking_functions(n):
        if any(
            not parking_simulation(r)
            for r in set(itertools.permutations(p))
        ):
            bad = p
            break
    return [_check(f"rearrangements of parking functions park n={n}",
                   bad is None, f"{bad}")]


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
    sub = posets.FinitePoset.from_leq(elements, leq)
    members = set(elements)
    closed = all(
        parking.pf_meet(a, b) in members and parking.pf_join(a, b) in members
        for a, b in itertools.combinations(elements, 2)
    )
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
               sub.are_isomorphic(posets.pentagon())),
        _check(f"pentagon witness is closed under meet and join n={n}", closed),
        _check(f"pentagon witness has the N5 relations n={n}", relations),
    ]


PARKING = (
    Check(1, 5, _simulation_checks),
    Check(1, 5, _rearrangements_check),
    Check(1, 7, lambda n: [_check(f"(n+1)^(n-1) parking functions n={n}",
                                  sum(1 for _ in parking._parking_functions(n))
                                  == (n + 1) ** (n - 1))]),
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
