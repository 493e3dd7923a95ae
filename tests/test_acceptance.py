"""End-to-end acceptance checks.

One test per criterion; each prints a single pass line when it
succeeds (run with -s to see them; under plain pytest the verbose
test listing serves the same purpose).
"""
import math
from fractions import Fraction

from click.testing import CliRunner

from middleorder import verify
from middleorder.cli import main as cli_main
from middleorder.counting import (
    boolean_by_rank,
    boolean_interval_total,
    euler_characteristic,
    euler_distribution,
    interval_count_total,
    intervals_by_rank,
    stirling_first_unsigned,
)
from middleorder.heyting import pseudocomplement, relative_pseudocomplement
from middleorder.orders import (
    join,
    join_irreducibles,
    meet,
    middle_leq,
    middle_poset,
    rank,
)
from middleorder.parking import all_parking_functions, parking_poset
from middleorder.permutations import (
    MeshPattern,
    all_inversion_sequences,
    all_permutations,
    cycle_count,
    inversion_sequence,
    mesh_contains,
)
from middleorder.posets import FinitePoset, birkhoff

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


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d}: PASS — {text}")


def test_criterion_01_interval_table_reproduction():
    for n, row in TABLE1.items():
        assert intervals_by_rank(n) == row
    report(1, "interval counts by rank match the published table for n = 1..5")


def test_criterion_02_boolean_table_reproduction():
    for n, row in TABLE2.items():
        assert boolean_by_rank(n) == row
        assert verify._boolean_by_rank_recursive(n) == row
    report(2, "boolean interval counts match via both the formula and the recursion")


def test_criterion_03_interval_grand_totals():
    for n in range(1, 6):
        poset = middle_poset(n)
        total = sum(poset.leq(i, j) for i in range(poset.n) for j in range(poset.n))
        assert total == interval_count_total(n)
        assert total == math.factorial(n) * math.factorial(n + 1) // 2**n
    assert interval_count_total(3) == 18
    assert interval_count_total(5) == 2700
    report(3, "brute-force interval totals equal n!(n+1)!/2^n for n = 1..5")


def test_criterion_04_boolean_totals():
    for n in range(1, 6):
        # Birkhoff: [x, y] is boolean iff the join-irreducibles in
        # phi(y) - phi(x) are pairwise incomparable.
        poset = middle_poset(n)
        phi, below = birkhoff(poset.n, poset.covers)
        verified = 0
        for x in range(poset.n):
            for y in range(poset.n):
                gained = phi[y] & ~phi[x]
                if poset.leq(x, y) and not any(
                        gained >> j & 1 and below[j] & gained for j in range(len(below))):
                    verified += 1
        assert verified == boolean_interval_total(n)
    assert boolean_interval_total(3) == 15
    assert boolean_interval_total(4) == 105
    assert boolean_interval_total(5) == 945
    report(4, "oracle-verified boolean interval totals equal (2n-1)!! for n = 1..5")


def test_criterion_05_covering_relation_identity():
    for n in range(1, 8):
        row = intervals_by_rank(n)
        f_n1 = row[1] if len(row) > 1 else 0
        harmonic = sum(Fraction(1, i) for i in range(1, n + 1))
        exact = Fraction(math.factorial(n)) * (n - harmonic)
        assert exact.denominator == 1 and exact.numerator == f_n1
        assert f_n1 == sum(n - cycle_count(w) for w in all_permutations(n))
    report(5, "f(n,1) = n!(n - H_n) and equals the total reflection length, n = 1..7")


def test_criterion_06_mobius_closed_form():
    results = verify.suite_mobius(5)
    assert results and all(r.ok for r in results), [r for r in results if not r.ok]
    report(6, "closed-form Moebius equals the oracle on all pairs for n = 1..5")


def test_criterion_07_involution_mobius_theorem():
    for n in range(1, 10):
        [result] = verify._mobius_involution_check(n)
        assert result.ok, result
    report(7, "involution-ideal Moebius equals the subposet oracle for n = 1..9")


def test_criterion_08_euler_characteristic():
    for n in range(1, 6):
        for v in all_permutations(n):
            for w in all_permutations(n):
                assert euler_characteristic(v) + euler_characteristic(w) == (
                    euler_characteristic(meet(v, w))
                    + euler_characteristic(join(v, w))
                )
    for n in range(2, 6):
        for w in join_irreducibles(n):
            assert euler_characteristic(w) == 1
    for n in range(1, 9):
        assert euler_distribution(n) == tuple(
            stirling_first_unsigned(n, n - k) for k in range(n)
        )
    report(8, "Euler characteristic is a valuation, 1 on join-irreducibles, "
              "Stirling-distributed")


def test_criterion_09_heyting_worked_example():
    v = (3, 6, 1, 5, 9, 2, 7, 8, 4)
    w = (6, 1, 4, 9, 2, 8, 5, 3, 7)
    assert relative_pseudocomplement(v, w) == (9, 8, 6, 4, 2, 1, 5, 3, 7)
    assert pseudocomplement(v) == (4, 2, 1, 3, 5, 6, 7, 8, 9)
    report(9, "worked Heyting examples reproduce the published values")


def test_criterion_10_heyting_adjunction():
    perms = all_permutations(4)
    for v in perms:
        for w in perms:
            arrow = relative_pseudocomplement(v, w)
            for z in perms:
                assert middle_leq(meet(v, z), w) == middle_leq(z, arrow)
    report(10, "Heyting adjunction holds over all 13,824 triples of S_4")


def test_criterion_11_sandwich_property():
    results = verify.suite_sandwich(6)
    assert results and all(r.ok for r in results), [r for r in results if not r.ok]
    report(11, "weak within middle within Bruhat, plus the pattern-avoider "
               "coincidences, for n = 1..6")


def test_criterion_12_mesh_cover_characterization():
    assert mesh_contains((1, 4, 2, 3), MeshPattern((1, 2))) == 4
    assert mesh_contains((1, 4, 2, 3), MeshPattern((1, 2), {(1, 0), (1, 1)})) == 3
    results = verify.suite_mesh(5)
    assert results and all(r.ok for r in results), [r for r in results if not r.ok]
    report(12, "mesh-witness swaps characterize covers and the 1423 example counts "
               "4 / 3")


def test_criterion_13_golden_diagrams():
    runner = CliRunner()
    expected = {
        "middle": {("123", "213"), ("123", "132"), ("213", "231"), ("132", "231"),
                   ("132", "312"), ("231", "321"), ("312", "321")},
        "weak": {("123", "213"), ("123", "132"), ("213", "231"), ("132", "312"),
                 ("231", "321"), ("312", "321")},
        "bruhat": {("123", "213"), ("123", "132"), ("213", "231"), ("213", "312"),
                   ("132", "231"), ("132", "312"), ("231", "321"), ("312", "321")},
    }
    for order, edges in expected.items():
        out = runner.invoke(cli_main, ["hasse", "--order", order, "--n", "3"])
        assert out.exit_code == 0
        poset = FinitePoset.from_dot(out.output)
        assert poset.cover_labels() == edges
    out = runner.invoke(cli_main, ["hasse", "--order", "involutions", "--n", "4"])
    poset = FinitePoset.from_dot(out.output)
    assert poset.n == 10 and len(poset.covers) == 15
    report(13, "Hasse diagrams reproduce the published S_3 figures and the "
               "10-node involution diagram")


def test_criterion_14_parking_lattice():
    poset = parking_poset(3)
    assert poset.is_lattice()
    assert not poset.is_distributive()
    assert poset.find_pentagon() is not None
    for n in range(1, 6):
        assert len(all_parking_functions(n)) == (n + 1) ** (n - 1)
    report(14, "parking functions with a top form a non-modular lattice of the "
               "right size")


def test_criterion_15_structural_properties():
    for n in range(1, 5):
        poset = middle_poset(n)
        assert poset.is_lattice()
        assert poset.is_distributive()
        codes = [inversion_sequence(w) for w in poset.labels]
        assert sorted(codes) == sorted(all_inversion_sequences(n))
        assert all(poset.leq(i, j) == all(a <= b for a, b in zip(x, y))
                   for i, x in enumerate(codes) for j, y in enumerate(codes))
    for n in range(1, 6):
        poset = middle_poset(n)
        graded, ranks = poset.is_graded()
        assert graded
        assert all(ranks[i] == rank(poset.labels[i]) for i in range(poset.n))
    report(15, "the middle order is a graded distributive chain-product lattice")
