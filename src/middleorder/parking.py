"""
The lattice of parking functions under coordinate-wise order, with an
adjoined top.

A preference vector (p_1, ..., p_n), p_i in [1, n], is a parking
function when its nondecreasing rearrangement satisfies q_i <= i.
Coordinate-wise meets of parking functions are parking functions;
joins fall back to the adjoined top when the coordinate-wise max fails
the criterion.  The resulting lattice is neither modular nor
distributive for n >= 3 (it contains a pentagon).
"""
from __future__ import annotations

import itertools
import operator
from typing import Iterator, Sequence, Union

from .permutations import _int_word, _parse_ints, _shown, check_size
from .posets import FinitePoset


class _Top:
    """Sentinel strictly above every parking function."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "T"


TOP = _Top()

ParkingFunction = Union[tuple[int, ...], _Top]


def validate_parking_function(prefs: Sequence[int]) -> tuple[int, ...]:
    p = _preferences(prefs)
    if not _parks(p):
        raise ValueError(f"{_shown(p)} is not a parking function")
    return p


def is_parking_function(prefs: Sequence[int]) -> bool:
    """Sorted criterion: the nondecreasing rearrangement has q_i <= i."""
    return _parks(_preferences(prefs))


def _preferences(prefs: Sequence[int]) -> tuple[int, ...]:
    """prefs as a tuple, checking it is n >= 1 ints in [1, n]."""
    p = _int_word(prefs, "preferences")
    n = len(p)
    if min(p) < 1 or max(p) > n:
        raise ValueError(f"preferences must be ints in [1, {n}]: {_shown(p)}")
    return p


def _parks(p: tuple[int, ...]) -> bool:
    """The sorted criterion alone, for preferences already in [1, n]."""
    return all(map(operator.le, sorted(p), range(1, len(p) + 1)))


def _validate_pair(p: ParkingFunction, q: ParkingFunction) -> tuple:
    """p and q, each TOP or a parking function, of one size if neither is TOP."""
    p, q = (x if x is TOP else validate_parking_function(x) for x in (p, q))
    if TOP not in (p, q) and len(p) != len(q):
        raise ValueError("size mismatch")
    return p, q


def pf_leq(p: ParkingFunction, q: ParkingFunction) -> bool:
    p, q = _validate_pair(p, q)
    if q is TOP:
        return True
    if p is TOP:
        return False
    return all(a <= b for a, b in zip(p, q))


def pf_meet(p: ParkingFunction, q: ParkingFunction) -> ParkingFunction:
    p, q = _validate_pair(p, q)
    if p is TOP:
        return q
    if q is TOP:
        return p
    return tuple(min(a, b) for a, b in zip(p, q))


def pf_join(p: ParkingFunction, q: ParkingFunction) -> ParkingFunction:
    """Coordinate-wise max when that is a parking function, TOP otherwise.

    Any upper bound dominates the coordinate-wise max, and domination
    preserves failure of the sorted criterion, so TOP is then least.
    """
    p, q = _validate_pair(p, q)
    if p is TOP or q is TOP:
        return TOP
    m = tuple(max(a, b) for a, b in zip(p, q))
    return m if _parks(m) else TOP


def all_parking_functions(n: int) -> list[tuple[int, ...]]:
    """ValueError beyond n = 7: at n = 8 there are 9^7 parking functions,
    more than 10!."""
    check_size(n, most=7, why="(n+1)^(n-1) would exceed 10!")
    return list(_parking_functions(n))


def _parking_functions(n: int) -> Iterator[tuple[int, ...]]:
    """The parking functions of size n, lazily, in lexicographic order.

    A prefix with c_j entries <= j and r entries still to place extends
    to a parking function iff j - c_j <= r for every j; its next entry
    may then be any v from 1 up to the first j with j - c_j = r (there is
    one: j = n).  So the tree of prefixes is walked depth first with no
    dead node, and the last entry of each leaf is emitted as a range.
    """
    return itertools.chain.from_iterable(_completions(n))


def _completions(n: int) -> Iterator[list[tuple[int, ...]]]:
    """For each extensible prefix of length n - 1, in lexicographic order,
    the list of its completions.  slack[j - 1] is r - (j - c_j) >= 0;
    appending v lowers it by one for j < v and keeps it for j >= v."""
    stack = [((), tuple(range(n - 1, -1, -1)))]
    while stack:
        prefix, slack = stack.pop()
        last = slack.index(0) + 1
        if len(prefix) == n - 1:
            yield [prefix + (v,) for v in range(1, last + 1)]
            continue
        lowered = tuple(s - 1 for s in slack)
        for v in range(last, 0, -1):
            stack.append((prefix + (v,), lowered[:v - 1] + slack[v - 1:]))


def parking_poset(n: int) -> FinitePoset:
    """The parking functions of size n with the adjoined top, whose
    vector (n+1, ..., n+1) lies above every parking function's."""
    check_size(n, most=6, why="(n+1)^(n-1) + 1 would exceed the poset size limit")
    pfs = all_parking_functions(n)
    return FinitePoset.from_vectors(pfs + [TOP], pfs + [(n + 1,) * n])


def pentagon_witness(n: int):
    """Five elements (bottom, side, low, high, TOP) of the parking lattice
    forming an N5 sublattice: low < high, and side is incomparable to
    both, meeting them in bottom and joining them in TOP.

    The witness lives on the first three coordinates; the remaining
    coordinates are padded with 4, 5, ..., n (forced preferences, so the
    joins of the incomparable pairs stay non-parking).
    """
    check_size(n, 3, 10**6, why="the witness lives on three coordinates, padded to n")
    pad = tuple(range(4, n + 1))
    bottom = (1, 1, 1) + pad
    side = (3, 1, 1) + pad
    low = (1, 1, 3) + pad
    high = (1, 2, 3) + pad
    return bottom, side, low, high, TOP


def format_parking(p: ParkingFunction) -> str:
    if p is TOP:
        return "T"
    return ",".join(str(v) for v in p)


def parse_parking(text: str) -> ParkingFunction:
    if isinstance(text, str) and text.strip() == "T":
        return TOP
    return validate_parking_function(_parse_ints(text, "parking function"))
