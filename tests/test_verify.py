import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import middleorder
from middleorder import counting, heyting, involutions, orders, parking, verify
from middleorder.permutations import (
    from_inversion_sequence,
    identity,
    inversion_sequence,
    long_element,
)

PACKAGE = Path(middleorder.__file__).resolve().parent

# Suites whose checks used to live in the library as assert statements.
SUITES = ("tables", "heyting", "involutions", "parking")
N_MAX = 4

CHILD = """
import json, sys
import pytest

from middleorder import involutions, verify
results = {s: verify.run_suite(s, int(sys.argv[2])) for s in sys.argv[1].split(",")}
print(json.dumps({"optimize": sys.flags.optimize, "results": results}))
"""


def test_suites_agree_under_optimize():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CHILD, ",".join(SUITES), str(N_MAX)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    child = json.loads(proc.stdout)
    assert child["optimize"] == 1
    here = {s: [list(r) for r in verify.run_suite(s, N_MAX)] for s in SUITES}
    assert child["results"] == here
    failed = [r for s in SUITES for r in here[s] if not r[1]]
    assert all(here.values()) and not failed, failed


def test_library_has_no_assert():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# The one cache outside verify, and why it stays: weak_leq and bruhat_leq
# read the closure on every call.
CACHED = {("orders", "_rise_closure")}


def test_library_caches_only_in_verify():
    # Each use of functools' lru_cache or cache, by the function it decorates.
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "verify.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in func.decorator_list:
                    owner.update(dict.fromkeys(ast.walk(decorator), func.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")
                    or isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
                    and ast.unparse(node.value) == "functools"):
                found.add((path.stem, owner.get(node, f"line {node.lineno}")))
    assert found == CACHED, found


def test_library_does_not_import_its_oracles():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None) or ""
                parts = module.split(".") + [
                    part for alias in node.names for part in alias.name.split(".")
                ]
                if "verify" in parts:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# The largest n each suite checks, whatever n_max asks for.
REACH = {
    "bijection": 8, "sandwich": 6, "mesh": 6, "tables": 8,
    "mobius": 8, "involutions": 9, "heyting": 8, "parking": 7,
}


def test_each_check_is_declared_once_with_its_sizes():
    source = (PACKAGE / "verify.py").read_text()
    assert "min(n_max" not in source
    size_loops = [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
        and node.target.id == "n"
    ]
    assert len(size_loops) == 1, size_loops
    assert list(verify.SUITES) == list(REACH)
    for suite, reach in REACH.items():
        table = getattr(verify, suite.upper())
        assert all(isinstance(c, verify.Check) and 1 <= c.first <= c.cap for c in table), suite
        assert max(c.cap for c in table) == reach, suite


def test_every_search_goes_through_holds():
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Break)]
    builders = {
        func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func) if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "CheckResult"
    }
    assert builders == {"_check", "_holds"}


def test_lattice_structure_is_read_off_the_embedding():
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    searches = {"are_isomorphic", "induced_subposet", "interval_elements",
                "enumerate_intervals", "is_distributive_lattice"}
    assert not names & searches, names & searches
    assert "birkhoff" in names


def test_holds_reports_the_first_counterexample_only():
    assert verify._holds("empty", []) == ("empty", True, "")
    assert verify._holds("pairs", [(1, 2), (3, 4)]) == ("pairs", False, "(1, 2)")

    def one_then_raise():
        yield "first"
        raise AssertionError("a second item was drawn")

    assert verify._holds("lazy", one_then_raise()) == ("lazy", False, "'first'")


def failures(results):
    return [(r.name, r.detail) for r in results if not r.ok]


def test_a_wrong_moebius_value_is_named_by_its_pair(monkeypatch):
    honest = orders._mobius_codes
    pair = ((1, 2, 3), (2, 3, 1))
    codes = tuple(map(inversion_sequence, pair))
    monkeypatch.setattr(orders, "_mobius_codes", lambda x, y: honest(x, y) + ((x, y) == codes))
    assert failures(verify.suite_mobius(3)) == [
        ("closed-form Moebius matches oracle on all pairs n=3", repr(pair))
    ]


def test_a_broken_sandwich_is_named_by_its_first_w(monkeypatch):
    monkeypatch.setattr(orders, "bruhat_poset", orders.weak_poset)
    assert ("middle refined by Bruhat n=3", "(1, 3, 2)") in failures(verify.suite_sandwich(3))


def test_a_dropped_upper_cover_is_named(monkeypatch):
    honest = orders.upper_covers
    monkeypatch.setattr(orders, "upper_covers",
                        lambda w: honest(w)[1:] if w == (2, 1, 3) else honest(w))
    assert ("upper covers are the covers of the coordinate order n=3",
            "((2, 1, 3), (2, 3, 1))") in failures(verify.suite_mobius(3))


def test_a_wrong_decoding_is_named_by_its_code(monkeypatch):
    honest = verify.from_inversion_sequence
    monkeypatch.setattr(verify, "from_inversion_sequence",
                        lambda x: (1, 2, 3) if x == (0, 1, 2) else honest(x))
    assert failures(verify.suite_bijection(3)) == [("round-trip bijection n=3", "(0, 1, 2)")]


def test_a_wrong_count_shows_the_value_it_got(monkeypatch):
    honest = counting.interval_count_total
    monkeypatch.setattr(counting, "interval_count_total", lambda n: honest(n) + (n == 3))
    assert failures(verify.suite_tables(3)) == [
        ("rank row sums to total interval count n=3", "18 vs 19"),
        ("oracle interval total n=3", "18 vs 19"),
        ("interval total equals prod C(i+2,2) to n=50", "3"),
    ]


def test_n_max_bounds_every_sized_check():
    for n_max in range(1, 5):
        sizes = [
            int(m.group(1)) for r in verify.run_suite("all", n_max)
            if "to n=" not in r.name and (m := re.search(r" n=(\d+)$", r.name))
        ]
        assert sizes and max(sizes) == n_max


def test_run_suite_rejects_n_max_below_one():
    for n_max in (0, -3):
        with pytest.raises(ValueError, match="n_max"):
            verify.run_suite("bijection", n_max)


def test_heyting_adjunction_checks_the_library_arrow(monkeypatch):
    def strict_arrow(v, w):
        x, y = inversion_sequence(v), inversion_sequence(w)
        return from_inversion_sequence(
            tuple(i if a < b else b for i, (a, b) in enumerate(zip(x, y))))

    def adjunction_holds():
        maximum, adjunction = verify._heyting_arrow_checks(4)
        assert adjunction.name == "Heyting adjunction over all triples n=4"
        return adjunction.ok

    assert adjunction_holds()
    monkeypatch.setattr(heyting, "relative_pseudocomplement", strict_arrow)
    assert not adjunction_holds()


def test_involution_test_check_catches_one_flipped_answer(monkeypatch):
    flipped = (0, 1, 0, 2)
    honest = involutions._seq_check
    monkeypatch.setattr(involutions, "_seq_check", lambda x: honest(x) != (tuple(x) == flipped))
    assert failures(verify.suite_involutions(4)) == [
        ("inversion-sequence involution test n=4", "(0, 1, 0, 2)")
    ]


def test_the_moebius_scan_encodes_each_label_once(monkeypatch):
    calls = []
    honest = verify.inversion_sequence
    monkeypatch.setattr(verify, "inversion_sequence", lambda w: calls.append(w) or honest(w))
    assert verify._mobius_pairs_check(4)[0].ok
    assert len(calls) == 24


def test_a_meet_that_is_no_involution_is_named_by_its_pair(monkeypatch):
    # (0, 1, 0), the meet of (0, 1, 0) and (0, 1, 2), decoded as a 3-cycle
    honest = verify._decode
    monkeypatch.setattr(verify, "_decode", lambda x: (2, 3, 1) if x == (0, 1, 0) else honest(x))
    assert failures(verify.suite_involutions(4)) == [
        ("meets of slow-climbers stay slow-climbing n=3", "((2, 1, 3), (3, 2, 1))")
    ]


def test_maximal_slow_climbers_must_lie_below_w(monkeypatch):
    # The maximal slow-climbers of all involutions, whatever w is.
    honest = involutions.maximal_slow_climbing_below
    monkeypatch.setattr(involutions, "maximal_slow_climbing_below",
                        lambda w: honest(long_element(len(w))))
    assert failures(verify.suite_involutions(5)) == [
        (f"maximal slow-climbers dominate every slow-climber n={n}", repr(identity(n)))
        for n in range(2, 6)
    ]


def test_one_rearrangement_that_fails_to_park_is_caught(monkeypatch):
    # (2, 1, 1) shares its sorted class (1, 1, 2) with (1, 1, 2) and (1, 2, 1).
    honest = verify.parking_simulation
    monkeypatch.setattr(verify, "parking_simulation",
                        lambda p: honest(p) and tuple(p) != (2, 1, 1))
    first = next(p for p in parking.all_parking_functions(3) if sorted(p) == [1, 1, 2])
    assert verify._rearrangements_check(3) == [
        ("rearrangements of parking functions park n=3", False, repr(first))
    ]
