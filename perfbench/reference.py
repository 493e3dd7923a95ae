"""Reference answers the benchmark checks the library against.

Nothing here imports middleorder: every answer is derived from the
definitions (inversion sequences, the order relations, the paper's
tables), so a defect in the library cannot hide behind itself.
Permutations are tuples of 1..n in one-line notation.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left, insort
from fractions import Fraction

# The paper's Table 1 (intervals by rank) and Table 2 (boolean intervals
# by rank), rows n = 1..5.
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


# ---------------------------------------------------------------------------
# Permutations and inversion sequences


def encode(w) -> tuple[int, ...]:
    """x_i = number of values smaller than i that appear after i."""
    seen: list[int] = []
    x = [0] * len(w)
    for v in reversed(w):
        x[v - 1] = bisect_left(seen, v)
        insort(seen, v)
    return tuple(x)


def is_permutation(w, n: int) -> bool:
    return len(w) == n and sorted(w) == list(range(1, n + 1))


def decodes_to(x, w) -> bool:
    """True iff w is the permutation whose inversion sequence is x."""
    return is_permutation(w, len(x)) and encode(w) == tuple(x)


def meet_coords(x, y) -> tuple[int, ...]:
    return tuple(map(min, x, y))


def join_coords(x, y) -> tuple[int, ...]:
    return tuple(map(max, x, y))


def arrow_coords(x, y) -> tuple[int, ...]:
    """Relative pseudocomplement x ~> y: the largest z with min(x, z) <= y."""
    return tuple(i if a <= b else b for i, (a, b) in enumerate(zip(x, y)))


def pseudo_coords(x) -> tuple[int, ...]:
    return arrow_coords(x, (0,) * len(x))


def leq_coords(x, y) -> bool:
    return all(a <= b for a, b in zip(x, y))


def mobius_coords(x, y) -> int:
    """Moebius value of [x, y] in a product of chains."""
    diffs = [b - a for a, b in zip(x, y)]
    if any(d < 0 or d > 1 for d in diffs):
        return 0
    return -1 if sum(diffs) % 2 else 1


def euler(x) -> int:
    return sum(1 for a in x if a)


def is_involution(w) -> bool:
    return all(w[w[i] - 1] == i + 1 for i in range(len(w)))


def mobius_involution(w) -> int:
    """Moebius value of [identity, w] among involutions: (-1)^(nonzero
    coordinates) when every ascent of the inversion sequence rises by one,
    else 0."""
    x = encode(w)
    if any(b > a + 1 for a, b in zip(x, x[1:])):
        return 0
    return -1 if euler(x) % 2 else 1


def upper_covers_ok(v, covers) -> bool:
    """True iff covers lists, in increasing value order, every element
    covering v in the middle order.

    An upper cover swaps a value i with the nearest smaller value to its
    left (the rise with the cell below-and-between shaded), which raises
    coordinate i of the inversion sequence by one and nothing else.
    """
    n = len(v)
    pos = [0] * (n + 1)
    for p, value in enumerate(v):
        pos[value] = p
    covers = list(covers)
    k = 0
    for i in range(1, n + 1):
        b = pos[i]
        a = b - 1
        while a >= 0 and v[a] > i:
            a -= 1
        if a < 0:
            continue
        if k >= len(covers):
            return False
        word = list(v)
        word[a], word[b] = word[b], word[a]
        if tuple(covers[k]) != tuple(word):
            return False
        k += 1
    return k == len(covers)


def random_permutation(rng, n: int) -> tuple[int, ...]:
    w = list(range(1, n + 1))
    rng.shuffle(w)
    return tuple(w)


def random_inversion_sequence(rng, n: int) -> tuple[int, ...]:
    return tuple(rng.randrange(i) for i in range(1, n + 1))


def random_involution(rng, n: int) -> tuple[int, ...]:
    """An involution with a uniformly chosen number of 2-cycles."""
    values = list(range(1, n + 1))
    rng.shuffle(values)
    w = list(range(1, n + 1))
    for t in range(rng.randint(0, n // 2)):
        a, b = values[2 * t], values[2 * t + 1]
        w[a - 1], w[b - 1] = b, a
    return tuple(w)


def format_perm(w) -> str:
    sep = "" if len(w) <= 9 else ","
    return sep.join(map(str, w))


def parse_perm(text: str) -> tuple[int, ...]:
    text = text.strip()
    if "," in text:
        return tuple(int(t) for t in text.split(","))
    return tuple(int(ch) for ch in text)


# ---------------------------------------------------------------------------
# Counting tables


def _poly_mul(p, q) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def intervals_row(n: int) -> tuple[int, ...]:
    """Intervals by rank in a product of chains of sizes 1..n: a chain of
    i elements has i - k intervals of rank k."""
    row = [1]
    for i in range(1, n + 1):
        row = _poly_mul(row, [i - k for k in range(i)])
    return tuple(row)


def boolean_row(n: int) -> tuple[int, ...]:
    """Boolean intervals by rank: each coordinate rises by 0 (i ways) or
    1 (i - 1 ways)."""
    row = [1]
    for i in range(1, n + 1):
        row = _poly_mul(row, [i, i - 1])
    return tuple(row[:n])


def stirling_table(n: int) -> list[list[int]]:
    """c[m][j], unsigned Stirling numbers of the first kind, m <= n."""
    c = [[1]]
    for m in range(1, n + 1):
        prev = c[-1] + [0]
        c.append([(prev[j - 1] if j else 0) + (m - 1) * prev[j] for j in range(m + 1)])
    return c


def table_rows(kind: str, n: int) -> list[tuple[int, ...]]:
    if kind == "intervals":
        return [intervals_row(m) for m in range(1, n + 1)]
    if kind == "boolean":
        return [boolean_row(m) for m in range(1, n + 1)]
    c = stirling_table(n)
    if kind == "euler":
        return [tuple(c[m][m - k] for k in range(m)) for m in range(1, n + 1)]
    if kind == "stirling":
        return [tuple(c[m]) for m in range(1, n + 1)]
    raise ValueError(f"unknown table kind {kind!r}")


def parse_table(text: str, fmt: str, row_lengths: list[int]) -> list[tuple[int, ...]]:
    """Rows 1..len(row_lengths) of a table printed as csv, json or an OEIS b-file."""
    import json

    if fmt == "json":
        payload = json.loads(text)
        return [tuple(row["values"]) for row in payload["rows"]]
    lines = text.strip().splitlines()
    if fmt == "csv":
        if lines[0] != "n,k,value":
            raise ValueError("bad csv header")
        rows: dict[int, list[int]] = {}
        for line in lines[1:]:
            m, k, value = map(int, line.split(","))
            if k != len(rows.setdefault(m, [])):
                raise ValueError(f"row {m} out of order")
            rows[m].append(value)
        return [tuple(rows[m]) for m in sorted(rows)]
    values = []
    for index, line in enumerate(lines, start=1):
        i, value = map(int, line.split())
        if i != index:
            raise ValueError(f"b-file index {i} at line {index}")
        values.append(value)
    out, start = [], 0
    for length in row_lengths:
        out.append(tuple(values[start : start + length]))
        start += length
    if start != len(values):
        raise ValueError("b-file length does not match the rows")
    return out


# ---------------------------------------------------------------------------
# Hasse diagrams


def covering_relation_count(n: int) -> int:
    """n!(n - H_n), the number of covers of the middle order on S_n."""
    value = math.factorial(n) * (n - sum(Fraction(1, i) for i in range(1, n + 1)))
    return int(value)


def _inversion_set(w) -> frozenset:
    return frozenset(
        (w[a], w[b]) for a, b in itertools.combinations(range(len(w)), 2) if w[a] > w[b]
    )


def _bruhat_leq(v, w) -> bool:
    """Tableau criterion: every sorted prefix of v is below that of w."""
    return all(
        all(a <= b for a, b in zip(sorted(v[:k]), sorted(w[:k])))
        for k in range(1, len(v))
    )


def _is_parking(p) -> bool:
    return all(a <= i for i, a in enumerate(sorted(p), start=1))


TOP = "T"


def hasse_covers(order: str, n: int) -> set[tuple[str, str]]:
    """Cover pairs, as DOT node labels, of the order drawn by `hasse`."""
    if order == "parking":
        elems = [p for p in itertools.product(range(1, n + 1), repeat=n) if _is_parking(p)]
        elems.append(TOP)

        def leq(p, q):
            return q == TOP or (p != TOP and all(a <= b for a, b in zip(p, q)))

        labels = [p if p == TOP else ",".join(map(str, p)) for p in elems]
    else:
        perms = list(itertools.permutations(range(1, n + 1)))
        codes = {w: encode(w) for w in perms}
        if order == "involutions":
            elems = [w for w in perms if is_involution(w)]
        elif order == "regular":
            elems = [w for w in perms if all(a in (0, i) for i, a in enumerate(codes[w]))]
        else:
            elems = perms
        if order == "weak":
            inv = {w: _inversion_set(w) for w in elems}

            def leq(v, w):
                return inv[v] <= inv[w]
        elif order == "bruhat":
            leq = _bruhat_leq
        else:

            def leq(v, w):
                return leq_coords(codes[v], codes[w])

        labels = [format_perm(w) for w in elems]
    m = len(elems)
    above = [sum(1 << j for j in range(m) if leq(elems[i], elems[j])) for i in range(m)]
    below = [sum(1 << i for i in range(m) if above[i] >> j & 1) for j in range(m)]
    return {
        (labels[i], labels[j])
        for i in range(m)
        for j in range(m)
        if i != j and above[i] >> j & 1 and above[i] & below[j] == (1 << i) | (1 << j)
    }
