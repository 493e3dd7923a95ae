"""
The canonical Heyting-algebra structure of the middle order.

The relative pseudocomplement has a coordinate-wise description on
inversion sequences: z_i is maxed out (i-1) where x_i <= y_i and equals
y_i otherwise.  Regular elements (fixed by double pseudocomplement) are
exactly the permutations avoiding both 132 and 231, and they form a
boolean algebra of rank n-1.
"""
from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .orders import middle_subposet
from .permutations import (
    Perm,
    _decode,
    check_size,
    inversion_pair,
    inversion_sequence,
)

if TYPE_CHECKING:
    from .posets import FinitePoset


def relative_pseudocomplement(v: Perm, w: Perm) -> Perm:
    """v ~> w, the maximum z with meet(v, z) <= w."""
    x, y = inversion_pair(v, w)
    z = tuple(i - 1 if x[i - 1] <= y[i - 1] else y[i - 1] for i in range(1, len(x) + 1))
    return _decode(z)


def pseudocomplement(v: Perm) -> Perm:
    """~v = v ~> identity: coordinate i gets i-1 where x_i = 0, else 0.

    Equivalently, the right-to-left minima of v listed in decreasing
    order followed by the remaining values in increasing order.
    """
    x = inversion_sequence(v)
    z = tuple(i - 1 if x[i - 1] == 0 else 0 for i in range(1, len(x) + 1))
    return _decode(z)


def is_regular(v: Perm) -> bool:
    """True iff v = ~~v, that is, every inversion-sequence coordinate is 0
    or maximal (equivalently, v avoids both 132 and 231)."""
    x = inversion_sequence(v)
    return all(x[i - 1] in (0, i - 1) for i in range(1, len(x) + 1))


def regular_elements(n: int) -> list[Perm]:
    """The 2^(n-1) regular elements, ordered by inversion sequence;
    ValueError beyond n = 22, where 2^(n-1) would exceed 10!."""
    check_size(n, most=22, why="2^(n-1) would exceed 10!")
    # Coordinate i is 0 or i - 1, so the product yields the codes in order.
    choices = [(0,)] + [(0, i - 1) for i in range(2, n + 1)]
    return [_decode(x) for x in itertools.product(*choices)]


def regular_subposet(n: int) -> FinitePoset:
    """Induced subposet of regular elements; boolean of rank n-1."""
    check_size(n, most=17, why="2^(n-1) would exceed the poset size limit")
    return middle_subposet(regular_elements(n))
