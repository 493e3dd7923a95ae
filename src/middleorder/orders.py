"""
The three orders on S_n: middle, weak and Bruhat.

Each is the componentwise order of one vector per permutation: the
inversion sequence (middle), the inversion-set indicator (weak) or the
sorted prefixes (Bruhat).  A comparison compares two vectors, and a
poset is FinitePoset.from_vectors on the vectors of its labels.  The
middle order is a distributive lattice (a product of chains); its upper
covers swap a rise 12 whose shaded cells are empty (a mesh pattern).
"""
from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

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
# Middle order

# A cover swaps a rise whose column between positions is shaded below its top value.
MIDDLE_RISE = MeshPattern((1, 2), {(1, 0), (1, 1)})


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


def middle_leq(v: Perm, w: Perm) -> bool:
    return _codes_leq(*inversion_pair(v, w))


def _codes_leq(x: Sequence[int], y: Sequence[int]) -> bool:
    """The componentwise order on vectors; on inversion sequences, the middle order."""
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
    """Whether the inversion set of v lies inside that of w."""
    return _vectors_leq(v, w, _weak_vector)


def bruhat_leq(v: Perm, w: Perm) -> bool:
    """Whether each sorted prefix of v lies componentwise below that of w."""
    return _vectors_leq(v, w, _bruhat_vector)


def _vectors_leq(v: Perm, w: Perm, vector: Callable[[Perm], tuple]) -> bool:
    """ValueError beyond n = 2,048: one call there takes up to 0.35 s (on a
    2-vCPU VM) and 52 MB for its two vectors, both growing as n^2."""
    v, w = validate_pair(v, w)
    check_size(len(v), most=2048, why="two vectors of n(n - 1)/2 entries")
    return _codes_leq(vector(v), vector(w))


def _weak_vector(w: Perm) -> tuple[bool, ...]:
    """Whether b comes before a in w, for each value pair a < b in
    lexicographic order: the inversion set, whose inclusion is the right
    weak order (Björner & Brenti, Combinatorics of Coxeter Groups, 3.1).
    Summed over a, b's entries give x_b: the middle order refines it."""
    pos = [0] * len(w)
    for p, value in enumerate(w):
        pos[value - 1] = p
    return tuple(pb < pa for a, pa in enumerate(pos) for pb in pos[a + 1:])


def _bruhat_vector(w: Perm) -> tuple[int, ...]:
    """sorted(w[:i]) for i = 1, ..., n - 1, concatenated: the Bruhat order
    is their componentwise order (the tableau criterion, ibid. 2.6)."""
    prefix, out = [], []
    for value in w[:-1]:
        insort(prefix, value)
        out += prefix
    return tuple(out)


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
    return _permutation_poset(n, _weak_vector)


def bruhat_poset(n: int) -> FinitePoset:
    return _permutation_poset(n, _bruhat_vector)


def _permutation_poset(n: int, vector: Callable[[Perm], tuple]) -> FinitePoset:
    """S_n in the label order of all_permutations(n), ordered by vector."""
    from .posets import FinitePoset

    check_size(n, most=7, why="the weak and Bruhat orders are built only up to n = 7")
    perms = all_permutations(n)
    return FinitePoset.from_vectors(perms, [vector(p) for p in perms])
