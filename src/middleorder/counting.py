"""
Counting machinery for the middle order: intervals in total and by
rank, boolean intervals, signless Stirling numbers of the first kind,
and the Euler-characteristic valuation.

All counts are exact.
"""
from __future__ import annotations

import itertools
import json
import math

from .permutations import Perm, _shown, check_size, inversion_pair, inversion_sequence

COUNTING_LIMIT = 50


def interval_count_total(n: int) -> int:
    """Number of intervals in the middle order of size n: n!(n+1)!/2^n."""
    check_size(n, most=COUNTING_LIMIT)
    return math.factorial(n) * math.factorial(n + 1) // 2**n


# Rows 1, 2, ... of intervals_by_rank computed so far, row m at index m - 1.
_INTERVAL_ROWS = [(1,)]


def intervals_by_rank(n: int) -> tuple[int, ...]:
    """Row (f(n,0), ..., f(n, C(n,2))) of interval counts by rank.

    f(1,0) = 1 and f(n,k) = sum_{h=0}^{n-1} (n-h) f(n-1, k-h).  With
    i = k - h that is the window sum over i of (n - k) f(n-1, i) + i f(n-1, i),
    so two prefix sums give each entry in O(1).
    """
    check_size(n, most=COUNTING_LIMIT)
    for m in range(len(_INTERVAL_ROWS) + 1, n + 1):
        prev = _INTERVAL_ROWS[-1]
        plain = [0, *itertools.accumulate(prev)]
        weighted = [0, *itertools.accumulate(i * v for i, v in enumerate(prev))]
        row = []
        for k in range(math.comb(m, 2) + 1):
            lo, hi = max(0, k - m + 1), min(k + 1, len(prev))
            row.append((m - k) * (plain[hi] - plain[lo]) + weighted[hi] - weighted[lo])
        _INTERVAL_ROWS.append(tuple(row))
    return _INTERVAL_ROWS[n - 1]


def covering_relation_count(n: int) -> int:
    """f(n,1), the number of covering relations; it equals n!(n - H_n)."""
    check_size(n, 2, COUNTING_LIMIT)
    return intervals_by_rank(n)[1]


def polynomial_row(n: int) -> tuple[int, ...]:
    """Coefficients (p(n,0), ..., p(n, C(n,2))) of the row polynomial
    prod_{i=1..n} (1 + 2x + ... + i x^{i-1}).

    Reversing the row gives intervals_by_rank(n).  Kept for verify's
    reversal check and because perfbench traces it; it moves into verify
    with its TRACED entry.
    """
    check_size(n, most=COUNTING_LIMIT)
    row = [1]
    for i in range(2, n + 1):
        product = [0] * (len(row) + i - 1)
        for a, coefficient in enumerate(row):
            for b in range(i):  # the factor's coefficient of x^b is b + 1
                product[a + b] += coefficient * (b + 1)
        row = product
    return tuple(row)


def is_boolean_interval(v: Perm, w: Perm) -> tuple[bool, int]:
    """Whether [v, w] is boolean, and its rank when it is.

    Boolean means every coordinate of I(w) - I(v) is 0 or 1; the rank is
    the number of ones and never exceeds n - 1.
    """
    x, y = inversion_pair(v, w)
    diffs = [b - a for a, b in zip(x, y)]
    if any(d < 0 for d in diffs):
        raise ValueError(f"{_shown(v)} is not below {_shown(w)} in the middle order")
    if any(d > 1 for d in diffs):
        return False, 0
    return True, sum(diffs)


def boolean_interval_total(n: int) -> int:
    """(2n-1)!! as a product of odd numbers."""
    check_size(n, most=COUNTING_LIMIT)
    value = 1
    for odd in range(1, 2 * n, 2):
        value *= odd
    return value


# Rows (c(m, 0), ..., c(m, m)) computed so far, row m at index m.
_STIRLING_ROWS = [(1,)]


def stirling_first_unsigned(n: int, j: int) -> int:
    """c(n, j): permutations of size n with j cycles, for n(j+1) <= 20000, by
    c(m, k) = c(m-1, k-1) + (m-1) c(m-1, k) on the columns 0..j alone; stores nothing."""
    check_size(j, 0, name="j")
    check_size(n, 0, 20000 // (j + 1), why="c(n, j) takes n(j+1) big-integer additions")
    row = (1,)
    for m in range(1, n + 1):
        row = tuple(a + (m - 1) * b for a, b in zip((0,) + row, row + (0,)))[:j + 1]
    return row[j] if j <= n else 0


def _stirling_row(n: int) -> tuple[int, ...]:
    """(c(n, 0), ..., c(n, n)), grown into _STIRLING_ROWS on demand; callers check n."""
    for m in range(len(_STIRLING_ROWS), n + 1):
        row = _STIRLING_ROWS[-1]
        _STIRLING_ROWS.append(tuple(a + (m - 1) * b for a, b in zip((0,) + row, row + (0,))))
    return _STIRLING_ROWS[n]


def boolean_by_rank(n: int) -> tuple[int, ...]:
    """Row (b(n,0), ..., b(n,n-1)) of boolean-interval counts by rank.

    Computed by the closed formula b(n,k) = sum_i C(i,k) c(n,n-i).
    """
    check_size(n, most=COUNTING_LIMIT)
    c = _stirling_row(n)[::-1]  # c[i] = c(n, n - i)
    return tuple(sum(math.comb(i, k) * c[i] for i in range(n + 1)) for k in range(n))


def euler_characteristic(w: Perm) -> int:
    """Number of right-to-left non-minima of w, i.e. of nonzero
    inversion-sequence coordinates."""
    x = inversion_sequence(w)
    return len(x) - x.count(0)


def euler_distribution(n: int) -> tuple[int, ...]:
    """Histogram of the Euler characteristic over S_n: entry k, the number
    of w with k right-to-left non-minima, is c(n, n-k)."""
    check_size(n, most=COUNTING_LIMIT)
    return _stirling_row(n)[:0:-1]


# ---------------------------------------------------------------------------
# Table export

TABLE_KINDS = ("intervals", "boolean", "euler", "stirling")


def table_rows(kind: str, n: int) -> list[tuple[int, tuple[int, ...]]]:
    """Rows 1..n of the requested table as (n, values) pairs."""
    check_size(n, most=COUNTING_LIMIT)
    if kind == "intervals":
        return [(m, intervals_by_rank(m)) for m in range(1, n + 1)]
    if kind == "boolean":
        return [(m, boolean_by_rank(m)) for m in range(1, n + 1)]
    if kind == "euler":
        return [(m, euler_distribution(m)) for m in range(1, n + 1)]
    if kind == "stirling":
        return [(m, _stirling_row(m)) for m in range(1, n + 1)]
    raise ValueError(f"unknown table kind {_shown(kind)}")


def rows_to_csv(rows: list[tuple[int, tuple[int, ...]]]) -> str:
    lines = ["n,k,value"]
    for n, values in rows:
        for k, value in enumerate(values):
            lines.append(f"{n},{k},{value}")
    return "\n".join(lines) + "\n"


def rows_to_bfile(rows: list[tuple[int, tuple[int, ...]]]) -> str:
    """OEIS b-file lines, flattened row by row, left to right."""
    lines = []
    index = 1
    for _, values in rows:
        for value in values:
            lines.append(f"{index} {value}")
            index += 1
    return "\n".join(lines) + "\n"


def rows_to_json(kind: str, rows: list[tuple[int, tuple[int, ...]]]) -> str:
    payload = {
        "kind": kind,
        "rows": [{"n": n, "values": list(values)} for n, values in rows],
    }
    return json.dumps(payload, indent=2) + "\n"
