"""
The subposet of involutions inside the middle order.

Involutions are characterized recursively through their inversion
sequences; the slow-climbing ones (no ascent jumping by more than one)
are exactly the concatenations of blocks (0, 1, ..., h), and the
Moebius function of a principal order ideal is (-1)^(nonzero entries)
for slow-climbing involutions and 0 otherwise.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .orders import _codes_leq, middle_subposet
from .permutations import (
    InvSeq,
    Perm,
    _decode,
    _encode,
    _is_involution,
    _shown,
    check_size,
    validate_inversion_sequence,
    validate_permutation,
)

if TYPE_CHECKING:
    from .posets import FinitePoset


def involution_seq_check(coords: InvSeq) -> bool:
    """Decide whether coords is the inversion sequence of an involution.

    Recursion: either x_n = 0 and the prefix is involutive, or
    x_n = k > 0, x_{n-k} = 0, and the size-(n-2) sequence obtained by
    dropping positions n-k and n and lowering the entries in between by
    one is involutive.
    """
    x = validate_inversion_sequence(coords)
    return _seq_check(x)


def _seq_check(x: tuple[int, ...]) -> bool:
    """The recursion of involution_seq_check, as a loop."""
    x = list(x)
    while x:
        k = x.pop()
        if k:
            m = len(x) - k  # position n-k, counted from 1
            if x[m] != 0:
                return False
            x[m:] = [v - 1 for v in x[m + 1:]]
            if any(v < 0 for v in x[m:]):
                return False
    return True


def involution_count(n: int) -> int:
    """i(n) = i(n-1) + (n-1) i(n-2), with i(0) = i(1) = 1; ValueError
    beyond n = 20000."""
    check_size(n, 0, 20000, why="i(n) takes n big-integer steps")
    prev, count = 1, 1
    for m in range(2, n + 1):
        prev, count = count, count + (m - 1) * prev
    return count


def all_involutions(n: int) -> tuple[Perm, ...]:
    """Involutions of size n, ordered lexicographically by inversion sequence.

    Generated size by size as i(m) = i(m-1) + (m-1) i(m-2): m is either
    a fixed point added to an involution of size m-1, or paired with some
    j < m, the other m-2 values carrying an involution of size m-2.
    ValueError beyond n = 14, where i(n) would exceed 10!.
    """
    check_size(n, most=14, why="i(n) would exceed 10!")
    before, current = [()], [(1,)]
    for m in range(2, n + 1):
        paired = [_pair_with_top(u, j, m) for j in range(1, m) for u in before]
        before, current = current, [u + (m,) for u in current] + paired
    return tuple(sorted(current, key=_encode))


def _pair_with_top(u: Perm, j: int, m: int) -> Perm:
    """The involution of size m pairing j with m, with u (of size m-2)
    relabelled onto the values 1..m-1 other than j."""
    word = [k + (k >= j) for k in u]
    word.insert(j - 1, m)
    word.append(j)
    return tuple(word)


def is_slow_climbing(coords: InvSeq) -> bool:
    """True iff every ascent rises by exactly one."""
    return _slow_climbing(validate_inversion_sequence(coords))


def _slow_climbing(x: InvSeq) -> bool:
    return all(not (a < b) or b == a + 1 for a, b in zip(x, x[1:]))


def slow_climb_decompose(coords: InvSeq) -> list[tuple[int, ...]]:
    """Split a slow-climbing involutive sequence into its (0,1,...,h) blocks.

    Blocks are cut exactly before each zero.
    """
    x = validate_inversion_sequence(coords)
    if not _seq_check(x):
        raise ValueError(f"{_shown(x)} is not the inversion sequence of an involution")
    if not _slow_climbing(x):
        raise ValueError(f"{_shown(x)} is not slow-climbing")
    blocks: list[tuple[int, ...]] = []
    current: list[int] = []
    for v in x:
        if v == 0 and current:
            blocks.append(tuple(current))
            current = []
        current.append(v)
    blocks.append(tuple(current))
    return blocks


def clusters(coords: InvSeq) -> list[tuple[int, int]]:
    """Maximal index intervals [a, b] (1-based) with y_{a+j} >= j.

    Maximality means neither [a-1, b] nor [a, b+1] has the property.
    [a, b] has it iff i - y_i <= a for every i in [a, b], so the right
    end r(a) of the longest such interval from a never decreases as a
    grows.  One forward scan finds every r(a), and [a, r(a)] is a
    cluster exactly when a = 1 or r(a-1) < r(a).  The clusters are
    pairwise incomparable and cover [1, n].
    """
    y = validate_inversion_sequence(coords)
    n = len(y)
    found = []
    end = 0  # r(a - 1), or 0 before the first step
    for a in range(1, n + 1):
        reach = max(end, a)
        while reach < n and reach + 1 - y[reach] <= a:
            reach += 1
        if reach > end:
            found.append((a, reach))
        end = reach
    return found


def maximal_slow_climbing_below(w: Perm) -> list[Perm]:
    """The antichain of maximal slow-climbing involutions below w, in
    inversion-sequence order.

    Only the 2^(n-1) block codes are filtered, and only the maximal ones
    are decoded.  Taken by decreasing rank, a code below w is maximal
    iff no maximal code found so far lies above it, so each code is
    compared with the maxima alone.  ValueError beyond n = 14.
    """
    y = _involution_code(w)
    n = check_size(len(y), most=14, why="its 2^(n-1) candidate codes would exceed 8,192")
    maxima: list[InvSeq] = []
    for x in sorted((x for x in _block_codes(n) if _codes_leq(x, y)), key=sum, reverse=True):
        if not any(_codes_leq(x, m) for m in maxima):
            maxima.append(x)
    return [_decode(x) for x in sorted(maxima)]


def _block_codes(n: int) -> list[InvSeq]:
    """The concatenations of blocks (0, 1, ..., h) of total length n, in
    lexicographic order: the codes of the slow-climbing involutions.

    Each entry after the first starts a new block at 0 or extends the
    current one by one.
    """
    codes = [(0,)]
    for _ in range(n - 1):
        codes = [x + (v,) for x in codes for v in (0, x[-1] + 1)]
    return codes


def mobius_involution_ideal(w: Perm) -> int:
    """Moebius value of the principal order ideal [identity, w] inside the
    induced involution subposet."""
    x = _involution_code(w)
    if not _slow_climbing(x):
        return 0
    return -1 if (len(x) - x.count(0)) % 2 else 1


def _involution_code(w: Perm) -> InvSeq:
    """The inversion sequence of w, which is validated once as an involution."""
    w = validate_permutation(w)
    if not _is_involution(w):
        raise ValueError(f"{_shown(w)} is not an involution")
    return _encode(w)


def involution_poset(n: int) -> FinitePoset:
    """The involutions of size n under the induced middle order."""
    check_size(n, most=11, why="i(n) would exceed the poset size limit")
    return middle_subposet(all_involutions(n))
