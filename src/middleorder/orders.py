"""
The three orders on S_n: middle, weak and Bruhat.

The middle order compares inversion sequences coordinate-wise, which
makes it a distributive lattice (a product of chains).  In all three
orders an upper cover of v swaps the two entries of a rise 12 of v
whose shaded region is empty; the orders differ only in the shaded
cells (Brändén–Claesson mesh patterns).  Weak and Bruhat comparability
are read from the posets generated by their cover relations, cached per
size; middle-order posets are built from the coordinates directly.
"""
from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .permutations import (
    InvSeq,
    MeshPattern,
    Perm,
    _decode,
    all_permutations,
    check_size,
    inversion_pair,
    inversion_sequence,
    shading_is_empty,
    validate_pair,
    validate_permutation,
)

if TYPE_CHECKING:
    from .posets import FinitePoset

# ---------------------------------------------------------------------------
# Covers as swaps of a shaded rise

# The column between the rise's positions is shaded below its top value
# (middle), entirely (weak: the positions are adjacent) or between its
# two values only (Bruhat: the swap adds exactly one inversion).
MIDDLE_RISE = MeshPattern((1, 2), {(1, 0), (1, 1)})
WEAK_RISE = MeshPattern((1, 2), {(1, 0), (1, 1), (1, 2)})
BRUHAT_RISE = MeshPattern((1, 2), {(1, 1)})


def _rise_swaps(v: Perm, rise: MeshPattern) -> Iterator[Perm]:
    """v with the two entries of each occurrence of the shaded rise swapped."""
    n = len(v)
    for a in range(n):
        for b in range(a + 1, n):
            if v[a] < v[b] and shading_is_empty(v, (a + 1, b + 1), rise):
                word = list(v)
                word[a], word[b] = word[b], word[a]
                yield tuple(word)


def _swapped_rise(v: Perm, w: Perm) -> Optional[tuple[int, int]]:
    """Positions a < b (0-based) such that w is v with the rise v[a] < v[b]
    swapped, or None."""
    diff = [p for p in range(len(v)) if v[p] != w[p]]
    if len(diff) != 2:
        return None
    a, b = diff
    if v[a] < v[b] and w[a] == v[b] and w[b] == v[a]:
        return a, b
    return None


# ---------------------------------------------------------------------------
# Middle order


def middle_leq(v: Perm, w: Perm) -> bool:
    return _codes_leq(*inversion_pair(v, w))


def _codes_leq(x: InvSeq, y: InvSeq) -> bool:
    """The middle order on inversion sequences: coordinate-wise."""
    return all(a <= b for a, b in zip(x, y))


def meet(v: Perm, w: Perm) -> Perm:
    x, y = inversion_pair(v, w)
    return _decode(tuple(min(a, b) for a, b in zip(x, y)))


def join(v: Perm, w: Perm) -> Perm:
    x, y = inversion_pair(v, w)
    return _decode(tuple(max(a, b) for a, b in zip(x, y)))


def rank(w: Perm) -> int:
    """Number of inversions of w; the middle-order rank function."""
    return sum(inversion_sequence(w))


def upper_covers(w: Perm) -> list[Perm]:
    """Elements covering w in the middle order, in coordinate order.

    The cover raising x_i by one swaps value i with the nearest value
    smaller than i to its left (the shaded rise of MIDDLE_RISE); it
    exists exactly when x_i < i - 1.  One monotone-stack pass finds
    those values, so the cost is O(n) plus the n-entry copy per cover.
    ValueError beyond n = 4,096, where the covers would take ~134 MB.
    """
    w = validate_permutation(w)
    n = check_size(len(w), most=4096, why="n - 1 covers of n entries")
    pos = [0] * (n + 1)
    # left_smaller[v] = nearest value smaller than v to its left, 0 if none
    left_smaller = [0] * (n + 1)
    stack = [0]
    for p, v in enumerate(w):
        while stack[-1] > v:
            stack.pop()
        left_smaller[v] = stack[-1]
        stack.append(v)
        pos[v] = p
    word = list(w)
    out = []
    for i in range(2, n + 1):
        j = left_smaller[i]
        if j:
            a, b = pos[j], pos[i]
            word[a], word[b] = i, j
            out.append(tuple(word))
            word[a], word[b] = j, i
    return out


def join_irreducibles(n: int) -> list[Perm]:
    """Permutations whose inversion sequence has exactly one nonzero entry.

    These are the words 1 2 ... i j (i+1) ... (j-1) (j+1) ... n; there
    are n(n-1)/2 of them.
    """
    check_size(n, most=250, why="n(n-1)/2 words of n entries")
    out = []
    for j in range(2, n + 1):
        for k in range(1, j):
            coords = [0] * n
            coords[j - 1] = k
            out.append(_decode(tuple(coords)))
    return out


def mobius_middle(v: Perm, w: Perm) -> int:
    """Closed-form Moebius function of the middle order.

    Zero unless [v, w] is a boolean interval (all coordinate differences
    0 or 1), in which case it is (-1)^(rank difference).
    """
    return _mobius_codes(*inversion_pair(v, w))


def _mobius_codes(x: InvSeq, y: InvSeq) -> int:
    """mobius_middle on the inversion sequences of v and w."""
    diffs = [b - a for a, b in zip(x, y)]
    if any(d < 0 for d in diffs):
        return 0
    if any(d > 1 for d in diffs):
        return 0
    return -1 if sum(diffs) % 2 else 1


def cover_mesh_witness(v: Perm, w: Perm) -> Optional[tuple[int, int]]:
    """The value pair (j, i) swapped between v and w when v is covered by w.

    The pair is an occurrence in v of the rise pattern with the cells
    below-and-between shaded: j before i, j < i, and no value smaller
    than i strictly between their positions.  Returns None when w is not
    v with such a pair swapped.
    """
    v, w = validate_pair(v, w)
    pair = _swapped_rise(v, w)
    if pair is None:
        return None
    a, b = pair
    if not shading_is_empty(v, (a + 1, b + 1), MIDDLE_RISE):
        return None
    return v[a], v[b]


# ---------------------------------------------------------------------------
# Weak and Bruhat orders


def weak_leq(v: Perm, w: Perm) -> bool:
    """Reads the weak order on S_n, built once per n; ValueError for n > 7."""
    v, w = validate_pair(v, w)
    return _cover_poset(len(v), WEAK_RISE).leq_labels(v, w)


def bruhat_leq(v: Perm, w: Perm) -> bool:
    """Reads the Bruhat order on S_n, built once per n; ValueError for n > 7."""
    v, w = validate_pair(v, w)
    return _cover_poset(len(v), BRUHAT_RISE).leq_labels(v, w)


# ---------------------------------------------------------------------------
# Posets for the oracle and for diagrams


def middle_subposet(perms: Iterable[Perm]) -> FinitePoset:
    """The permutations perms (all of one size) under the induced middle
    order: the componentwise order of their inversion sequences, each
    label encoded once."""
    from .posets import FinitePoset

    perms = tuple(perms)
    return FinitePoset.from_vectors(perms, [inversion_sequence(p) for p in perms])


def middle_poset(n: int) -> FinitePoset:
    check_size(n, most=8, why="n! would exceed the poset size limit")
    return middle_subposet(all_permutations(n))


def weak_poset(n: int) -> FinitePoset:
    return _cover_poset(n, WEAK_RISE)


def bruhat_poset(n: int) -> FinitePoset:
    return _cover_poset(n, BRUHAT_RISE)


def _cover_poset(n: int, rise: MeshPattern) -> FinitePoset:
    """S_n ordered by the closure of its rise swaps, cached per size;
    ValueError beyond n = 7, before n! masks of n! bits are built."""
    check_size(n, most=7, why="the weak and Bruhat orders are built only up to n = 7")
    return _rise_closure(n, rise)


@lru_cache(maxsize=None)
def _rise_closure(n: int, rise: MeshPattern) -> FinitePoset:
    from .posets import FinitePoset

    perms = all_permutations(n)
    index = {p: i for i, p in enumerate(perms)}
    pairs = [(index[p], index[q]) for p in perms for q in _rise_swaps(p, rise)]
    return FinitePoset.from_covers(perms, pairs)
