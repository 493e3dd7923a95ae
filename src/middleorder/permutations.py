"""
Permutations in one-line notation and their inversion sequences.

Permutations are tuples of the integers 1..n (1-based values, 1-based
positions in the public contract).  The inversion sequence of w is the
vector (x_1, ..., x_n) where x_i counts the inversions of w whose
inversion top is the value i; it always satisfies x_i in [0, i-1], and
w -> I(w) is a bijection from S_n onto the full box of such vectors.

>>> inversion_sequence((4, 1, 5, 6, 2, 3))
(0, 0, 0, 3, 2, 2)
>>> from_inversion_sequence((0, 0, 0, 3, 2, 2))
(4, 1, 5, 6, 2, 3)
"""
from __future__ import annotations

import itertools
import reprlib
from dataclasses import dataclass
from typing import Iterator, Sequence

Perm = tuple[int, ...]
InvSeq = tuple[int, ...]
# _encode marks the values it has seen in one bitmask, or in one per run of
# 2**_RUN_BITS values once there are that many; _decode keeps the word in runs
# of 2**_RUN_BITS to 2**(_RUN_BITS + 1) entries once it has more than
# _DECODE_RUNS_FROM of them
_RUN_BITS = 10
_DECODE_RUNS_FROM = 3 << _RUN_BITS  # where the runs start to beat one list


def _int_word(seq: Sequence[int], kind: str) -> tuple[int, ...]:
    """seq as a tuple; ValueError unless it is a non-empty iterable of
    entries of type int.  bools and floats compare equal to ints but break
    decoding and formatting, so they are refused."""
    try:
        word = tuple(seq)
    except TypeError:
        raise ValueError(f"{kind} must be iterable, not {type(seq).__name__}") from None
    if not word:
        raise ValueError(f"{kind} of size 0 is not supported")
    if set(map(type, word)) != {int}:
        raise ValueError(f"{kind} entries must be int: {_shown(word)}")
    return word


def validate_permutation(word: Sequence[int]) -> Perm:
    """Return word as a tuple, checking it is a permutation of {1..n}, n >= 1."""
    w = _int_word(word, "permutation")
    n = len(w)
    # With every entry an int, n distinct values from 1 to n are exactly {1..n}.
    if len(set(w)) != n or min(w) != 1 or max(w) != n:
        raise ValueError(f"not a permutation of {{1..{n}}}: {_shown(w)}")
    return w


def validate_pair(v: Sequence[int], w: Sequence[int]) -> tuple[Perm, Perm]:
    """Validate two permutations of the same size."""
    v = validate_permutation(v)
    w = validate_permutation(w)
    if len(v) != len(w):
        raise ValueError(f"size mismatch: {len(v)} vs {len(w)}")
    return v, w


def validate_inversion_sequence(coords: Sequence[int]) -> InvSeq:
    """Return coords as a tuple, checking x_i in [0, i-1] for every i."""
    x = _int_word(coords, "inversion sequence")
    for i, xi in enumerate(x, start=1):
        if not 0 <= xi <= i - 1:
            raise ValueError(f"coordinate {i} is {_shown(xi)}, outside [0, {i - 1}]")
    return x


def check_size(n: object, least: int = 1, most: int | None = None,
               name: str = "n", why: str = "") -> int:
    """n if it is a plain int in [least, most], else ValueError (bool and
    float too); the message shows n through _shown."""
    if type(n) is not int:
        raise ValueError(f"{name} must be an int, not {type(n).__name__}")
    if n < least or most is not None and n > most:
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be {bound}{f' ({why})' if why else ''}, not {_shown(n)}")
    return n


class _BoundedRepr(reprlib.Repr):
    """reprlib's repr, but an int past 64 bits shows its bit count (no digits)."""

    def repr_int(self, x: int, level: int) -> str:
        return repr(x) if x.bit_length() <= 64 else f"an int of {x.bit_length()} bits"


_shown = _BoundedRepr().repr  # a value from outside, bounded for a refusal message


def identity(n: int) -> Perm:
    check_size(n, most=10**6, why="a word of n entries")
    return tuple(range(1, n + 1))


def long_element(n: int) -> Perm:
    """The reverse identity n, n-1, ..., 1, the maximum of the middle order."""
    check_size(n, most=10**6, why="a word of n entries")
    return tuple(range(n, 0, -1))


def inversion_sequence(w: Perm) -> InvSeq:
    """x_i = number of values j < i appearing after i in one-line notation."""
    return _encode(validate_permutation(w))


def _encode(w: Perm) -> InvSeq:
    """inversion_sequence of an already validated permutation, in O(n log n).

    Scans w from right to left, marking the values seen in a bitmask: x_v
    is the popcount of the seen bits below v's.  Below n = 1,024 one int
    holds every bit, so each value costs three C-level big-int operations
    of at most 128 bytes.  Longer words keep one mask per run of 1,024
    values (v is bit v & low of mask v >> _RUN_BITS) and add the seen
    values in lower runs, from a Fenwick tree over the runs.
    """
    n = len(w)
    top = n >> _RUN_BITS
    if not top:
        seen = 0
        x = [0] * n
        for v in reversed(w):
            bit = 1 << v
            x[v - 1] = (seen & (bit - 1)).bit_count()
            seen |= bit
        return tuple(x)
    low = (1 << _RUN_BITS) - 1
    masks = [0] * (top + 1)
    tree = [0] * (top + 1)
    x = [0] * n
    for v in reversed(w):
        r = v >> _RUN_BITS
        bit = 1 << (v & low)
        mask = masks[r]
        k = (mask & (bit - 1)).bit_count()
        masks[r] = mask | bit
        i = r
        while i:
            k += tree[i]
            i &= i - 1
        x[v - 1] = k
        i = r + 1
        while i <= top:
            tree[i] += 1
            i += i & -i
    return tuple(x)


def inversion_pair(v: Sequence[int], w: Sequence[int]) -> tuple[InvSeq, InvSeq]:
    """Inversion sequences of two permutations of the same size, each
    validated once."""
    v, w = validate_pair(v, w)
    return _encode(v), _encode(w)


def from_inversion_sequence(coords: Sequence[int]) -> Perm:
    """Inverse of inversion_sequence: decode a box vector to a permutation.

    Inserting the values 1..n in increasing order, value i goes x_i slots
    from the right of the current word, so exactly x_i smaller values end
    up after it.
    """
    return _decode(validate_inversion_sequence(coords))


def _decode(x: InvSeq) -> Perm:
    """from_inversion_sequence of an already validated sequence.

    Up to _DECODE_RUNS_FROM values, value i is inserted into one list, at
    Theta(n^2) C-level element moves that stay cheap while the list is
    short; longer sequences go to _decode_in_runs.
    """
    if len(x) > _DECODE_RUNS_FROM:
        return _decode_in_runs(x)
    word: list[int] = []
    for i, xi in enumerate(x, start=1):
        word.insert(len(word) - xi, i)
    return tuple(word)


def _decode_in_runs(x: InvSeq) -> Perm:
    """_decode of a sequence longer than _DECODE_RUNS_FROM.

    The first _DECODE_RUNS_FROM values are decoded into one list and cut
    into runs of 1,024.  Each later value i goes to index (i - 1) - x_i
    of the word, in the run found by a descent of a Fenwick tree over the
    run lengths.  A run that reaches 2,048 entries splits in half, and
    the tree is rebuilt: O(n log n) steps plus n / 1,024 rebuilds of
    O(n / 1,024) each.
    """
    half = 1 << _RUN_BITS
    head = _decode(x[:_DECODE_RUNS_FROM])
    runs = [list(head[k:k + half]) for k in range(0, _DECODE_RUNS_FROM, half)]
    tree, step = _length_tree(runs)
    m = len(runs)
    for i, xi in enumerate(x[_DECODE_RUNS_FROM:], start=_DECODE_RUNS_FROM + 1):
        # descend to run r and index p in it, 0 < p <= len(run) unless p = 0
        p = i - 1 - xi
        r = 0
        j = step
        while j:
            if r + j <= m and tree[r + j] < p:
                r += j
                p -= tree[r]
            j >>= 1
        run = runs[r]
        run.insert(p, i)
        if len(run) == 2 * half:
            runs[r:r + 1] = run[:half], run[half:]
            tree, step = _length_tree(runs)
            m += 1
        else:
            r += 1
            while r <= m:
                tree[r] += 1
                r += r & -r
    return tuple(itertools.chain.from_iterable(runs))


def _length_tree(runs: list[list[int]]) -> tuple[list[int], int]:
    """A Fenwick tree (1-based) of the run lengths, built in O(len(runs)),
    and the largest power of two at most len(runs), where a descent starts."""
    m = len(runs)
    tree = [0, *map(len, runs)]
    for j in range(1, m + 1):
        k = j + (j & -j)
        if k <= m:
            tree[k] += tree[j]
    return tree, 1 << (m.bit_length() - 1)


def all_inversion_sequences(n: int) -> Iterator[InvSeq]:
    """All inversion sequences of size n in lexicographic order."""
    check_size(n, most=10, why="n! would exceed 10!")
    return itertools.product(*(range(i) for i in range(1, n + 1)))


def all_permutations(n: int) -> list[Perm]:
    """All of S_n, ordered lexicographically by inversion sequence;
    ValueError beyond n = 10, where n! would exceed 10!."""
    return [_decode(x) for x in all_inversion_sequences(n)]


# ---------------------------------------------------------------------------
# Pattern containment


@dataclass(frozen=True)
class MeshPattern:
    """A classical pattern together with a set of shaded grid cells.

    The cell (a, b), with a, b in [0, k], is the unit square
    [a, a+1] x [b, b+1] of the (k+1) x (k+1) grid around the pattern's
    permutation graph.
    """

    pattern: Perm
    mesh: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        p = validate_permutation(self.pattern)
        object.__setattr__(self, "pattern", p)
        k = len(p)
        try:
            mesh = frozenset(self.mesh)
            outside = [c for c in mesh if len(c) != 2 or not all(0 <= i <= k for i in c)]
        except TypeError:
            raise ValueError(f"mesh must be a set of cells (a, b), not {_shown(self.mesh)}") from None
        if outside:
            raise ValueError(f"mesh cell {_shown(outside[0])} outside [0,{k}]x[0,{k}]")
        object.__setattr__(self, "mesh", mesh)


def _classical_occurrences(w: Perm, p: Perm) -> Iterator[tuple[int, ...]]:
    """Yield the position tuples (1-based, increasing) of occurrences of p in w."""
    n, k = len(w), len(p)
    if k > n:
        return
    for positions in itertools.combinations(range(1, n + 1), k):
        values = [w[q - 1] for q in positions]
        if _pattern_of(values) == p:
            yield positions


def _pattern_of(values: Sequence[int]) -> Perm:
    ranks = sorted(values)
    return tuple(ranks.index(v) + 1 for v in values)


def avoids_classical(w: Perm, p: Perm) -> bool:
    """True iff no subsequence of w is order-isomorphic to p."""
    w = validate_permutation(w)
    p = validate_permutation(p)
    return next(_classical_occurrences(w, p), None) is None


def mesh_contains(w: Perm, m: MeshPattern) -> int:
    """Count occurrences of the mesh pattern m in w."""
    w = validate_permutation(w)
    if not isinstance(m, MeshPattern):
        raise ValueError(f"m must be a MeshPattern, not {type(m).__name__}")
    return sum(
        1 for positions in _classical_occurrences(w, m.pattern)
        if shading_is_empty(w, positions, m)
    )


def shading_is_empty(w: Perm, positions: tuple[int, ...], m: MeshPattern) -> bool:
    """True iff no point of w lies in a shaded region of the occurrence of
    m's pattern at the given positions.

    An occurrence at positions p_1 < ... < p_k with chosen values sorted
    as q_1 < ... < q_k stretches cell (a, b) to the open region of points
    of w strictly between the a-th and (a+1)-th chosen positions and
    strictly between the b-th and (b+1)-th chosen values (a = 0 / b = 0
    meaning before the first, a = k / b = k after the last).  The
    occurrence counts only if every stretched shaded region is point-free.
    """
    n = len(w)
    pos_bounds = (0, *positions, n + 1)
    val_bounds = (0, *sorted(w[q - 1] for q in positions), n + 1)
    return not any(
        val_bounds[b] < w[q - 1] < val_bounds[b + 1]
        for a, b in m.mesh
        for q in range(pos_bounds[a] + 1, pos_bounds[a + 1])
    )


# ---------------------------------------------------------------------------
# Cycles, involutions, Foata


def cycles(w: Perm) -> list[tuple[int, ...]]:
    """Disjoint cycles of w, each starting at its minimum, sorted by minima."""
    w = validate_permutation(w)
    seen = [False] * len(w)
    out = []
    for start in range(1, len(w) + 1):
        if seen[start - 1]:
            continue
        cyc = []
        v = start
        while not seen[v - 1]:
            seen[v - 1] = True
            cyc.append(v)
            v = w[v - 1]
        out.append(tuple(cyc))
    return out


def cycle_count(w: Perm) -> int:
    """Number of cycles of w, fixed points included."""
    return len(cycles(w))


def is_involution(w: Perm) -> bool:
    return _is_involution(validate_permutation(w))


def _is_involution(w: Perm) -> bool:
    """is_involution of an already validated permutation."""
    return all(w[v - 1] == i for i, v in enumerate(w, start=1))


def foata_image(w: Perm) -> Perm:
    """Modified Foata bijection.

    Write w in cycle notation with the smallest element of each cycle
    listed last and cycles sorted by increasing minima; dropping the
    parentheses gives the one-line notation of the image.  The image has
    as many right-to-left minima as w has cycles.

    >>> foata_image((3, 2, 1))
    (3, 1, 2)
    """
    word: list[int] = []
    for cyc in cycles(w):
        word.extend(cyc[1:])
        word.append(cyc[0])
    return tuple(word)


def right_to_left_minima(w: Perm) -> frozenset[int]:
    """Values i such that no smaller value appears at a later position."""
    w = validate_permutation(w)
    out = set()
    smallest = len(w) + 1
    for v in reversed(w):
        if v < smallest:
            out.add(v)
            smallest = v
    return frozenset(out)


# ---------------------------------------------------------------------------
# Serialization


def format_permutation(w: Perm) -> str:
    """Digit string for n <= 9, comma-separated otherwise."""
    w = validate_permutation(w)
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)


def _parse_ints(text: str, kind: str) -> list[int]:
    """The comma-separated ints of text; ValueError for anything else, a
    non-str included."""
    if not isinstance(text, str):
        raise ValueError(f"{kind} text must be a str, not {type(text).__name__}")
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad {kind} {_shown(text)}") from exc


def parse_permutation(text: str) -> Perm:
    """A permutation from comma-separated values, or from a digit string
    with one value per digit (n <= 9)."""
    word = _parse_ints(text, "permutation")
    if "," not in text and text.strip().isdigit():
        word = [int(ch) for ch in text.strip()]
    return validate_permutation(word)


def format_inversion_sequence(x: InvSeq) -> str:
    return ",".join(str(v) for v in x)


def parse_inversion_sequence(text: str) -> InvSeq:
    return validate_inversion_sequence(_parse_ints(text, "inversion sequence"))
