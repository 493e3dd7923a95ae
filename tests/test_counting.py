import json
import math

import pytest

from middleorder import counting
from middleorder.counting import (
    boolean_by_rank,
    boolean_interval_total,
    covering_relation_count,
    euler_characteristic,
    euler_distribution,
    interval_count_total,
    intervals_by_rank,
    is_boolean_interval,
    polynomial_row,
    rows_to_bfile,
    rows_to_csv,
    rows_to_json,
    stirling_first_unsigned,
    table_rows,
)
from middleorder.orders import join, join_irreducibles, meet
from middleorder.permutations import all_permutations, identity, long_element

TABLE1_ROW5 = (120, 326, 501, 562, 497, 354, 204, 94, 33, 8, 1)
TABLE2_ROW5 = (120, 326, 329, 146, 24)


def test_interval_rows_golden():
    assert intervals_by_rank(1) == (1,)
    assert intervals_by_rank(2) == (2, 1)
    assert intervals_by_rank(3) == (6, 7, 4, 1)
    assert intervals_by_rank(4) == (24, 46, 49, 36, 18, 6, 1)
    assert intervals_by_rank(5) == TABLE1_ROW5


def test_boolean_rows_golden():
    assert boolean_by_rank(1) == (1,)
    assert boolean_by_rank(2) == (2, 1)
    assert boolean_by_rank(3) == (6, 7, 2)
    assert boolean_by_rank(4) == (24, 46, 29, 6)
    assert boolean_by_rank(5) == TABLE2_ROW5


@pytest.mark.parametrize("n", range(1, 12))
def test_totals(n):
    assert sum(intervals_by_rank(n)) == interval_count_total(n)
    assert interval_count_total(n) == math.factorial(n) * math.factorial(n + 1) // 2**n
    assert sum(boolean_by_rank(n)) == boolean_interval_total(n)


def test_known_totals():
    assert interval_count_total(3) == 18
    assert interval_count_total(5) == 2700
    assert boolean_interval_total(3) == 15
    assert boolean_interval_total(4) == 105
    assert boolean_interval_total(5) == 945


@pytest.mark.parametrize("n", range(2, 10))
def test_covering_relation_identity(n):
    # the function itself asserts the harmonic-number form internally
    assert covering_relation_count(n) == intervals_by_rank(n)[1]


@pytest.mark.parametrize("n", range(1, 51))
def test_polynomial_row_reverses_interval_row(n):
    assert tuple(reversed(polynomial_row(n))) == intervals_by_rank(n)


def test_polynomial_row_small():
    # (1)(1 + 2x)(1 + 2x + 3x^2) = 1 + 4x + 7x^2 + 6x^3
    assert polynomial_row(3) == (1, 4, 7, 6)


def test_is_boolean_interval():
    assert is_boolean_interval((1, 2, 3), (2, 1, 3)) == (True, 1)
    assert is_boolean_interval((1, 2, 3), (1, 2, 3)) == (True, 0)
    assert is_boolean_interval((1, 2, 3), (2, 3, 1)) == (True, 2)
    assert is_boolean_interval((1, 2, 3), (3, 1, 2)) == (False, 0)  # jump of 2
    with pytest.raises(ValueError):
        is_boolean_interval((2, 1, 3), (1, 2, 3))


def test_stirling_numbers():
    assert stirling_first_unsigned(4, 1) == 6
    assert stirling_first_unsigned(4, 2) == 11
    assert stirling_first_unsigned(4, 3) == 6
    assert stirling_first_unsigned(4, 4) == 1
    assert stirling_first_unsigned(5, 0) == 0
    for n in range(1, 9):
        assert sum(stirling_first_unsigned(n, j) for j in range(n + 1)) == math.factorial(n)


def test_stirling_at_large_n_does_not_recurse():
    assert stirling_first_unsigned(2000, 1) == math.factorial(1999)


def test_stirling_keeps_only_the_columns_asked_for():
    rows = list(counting._STIRLING_ROWS)
    assert stirling_first_unsigned(1500, 1) == math.factorial(1499)
    assert counting._STIRLING_ROWS == rows  # nothing is stored
    # c(n, 2) = (n-1)! H_{n-1} needs a wider row, and a full row still sums to n!.
    assert stirling_first_unsigned(1600, 1) == math.factorial(1599)
    assert stirling_first_unsigned(1600, 2) == sum(math.factorial(1599) // k for k in range(1, 1600))
    assert sum(stirling_first_unsigned(60, j) for j in range(61)) == math.factorial(60)


def test_euler_characteristic_values():
    assert euler_characteristic(identity(6)) == 0
    assert euler_characteristic(long_element(4)) == 3
    for n in range(2, 6):
        for w in join_irreducibles(n):
            assert euler_characteristic(w) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_euler_distribution_is_stirling(n):
    dist = euler_distribution(n)
    assert dist == tuple(stirling_first_unsigned(n, n - k) for k in range(n))
    assert sum(dist) == math.factorial(n)


def test_euler_distribution_reaches_the_counting_limit():
    dist = euler_distribution(50)
    assert sum(dist) == math.factorial(50)
    assert dist == tuple(stirling_first_unsigned(50, 50 - k) for k in range(50))


@pytest.mark.parametrize("n", range(1, 6))
def test_euler_is_a_valuation(n):
    for v in all_permutations(n):
        for w in all_permutations(n):
            assert euler_characteristic(v) + euler_characteristic(w) == (
                euler_characteristic(meet(v, w)) + euler_characteristic(join(v, w))
            )


def test_limits_enforced():
    with pytest.raises(ValueError):
        intervals_by_rank(0)
    with pytest.raises(ValueError):
        interval_count_total(51)
    with pytest.raises(ValueError):
        euler_distribution(51)


# -- export formats -------------------------------------------------------------


def test_csv_format():
    text = rows_to_csv(table_rows("euler", 1))
    assert text == "n,k,value\n1,0,1\n"
    lines = rows_to_csv(table_rows("intervals", 3)).splitlines()
    assert lines[0] == "n,k,value"
    assert lines[1] == "1,0,1"
    assert lines[-1] == "3,3,1"


def test_bfile_format():
    text = rows_to_bfile(table_rows("intervals", 2))
    assert text == "1 1\n2 2\n3 1\n"


def test_json_format():
    payload = json.loads(rows_to_json("boolean", table_rows("boolean", 2)))
    assert payload["kind"] == "boolean"
    assert payload["rows"] == [{"n": 1, "values": [1]}, {"n": 2, "values": [2, 1]}]


def test_unknown_table_kind():
    with pytest.raises(ValueError):
        table_rows("zeta", 3)
