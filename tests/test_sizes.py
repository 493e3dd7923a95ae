"""Every public function that takes a size refuses a malformed or
oversized one with ValueError, before any enumeration, big-integer loop
or cache; every one that takes a word refuses a non-iterable one, or one
with an entry that is not an int, with ValueError; and every parser
refuses what is not a str.  Nothing here attempts the oversized work or
times anything."""
import ast
import inspect
import itertools
import math
import operator
import pathlib
import re
import sys

import pytest
from click.testing import CliRunner

import middleorder
from middleorder import (MeshPattern, counting, heyting, involutions, orders, parking, permutations,
                         posets)
from middleorder.cli import main
from middleorder.involutions import all_involutions, involution_count
from middleorder.permutations import check_size, identity, long_element
from middleorder.posets import POSET_SIZE_LIMIT

MALFORMED = (True, 2.0, math.nan, None, "3", -1, [])

# Each public size-taking function: for each of its size arguments, one
# value just over its budget.  The other arguments are given 1.
OVER_BUDGET = {
    "all_involutions": {"n": 15},
    "all_parking_functions": {"n": 8},
    "all_permutations": {"n": 11},
    "boolean_by_rank": {"n": 51},
    "boolean_interval_total": {"n": 51},
    "covering_relation_count": {"n": 51},
    "euler_distribution": {"n": 51},
    "identity": {"n": 10**6 + 1},
    "interval_count_total": {"n": 51},
    "intervals_by_rank": {"n": 51},
    "involution_count": {"n": 20001},
    "join_irreducibles": {"n": 251},
    "long_element": {"n": 10**6 + 1},
    "middle_poset": {"n": 9},
    "polynomial_row": {"n": 51},
    "regular_elements": {"n": 23},
    "stirling_first_unsigned": {"n": 10001, "j": 20000},
    "weak_poset": {"n": 8},
    "bruhat_poset": {"n": 8},
}
# The diagram builders, outside middleorder.__all__.
NOT_EXPORTED = {"weak_poset", "bruhat_poset"}


def size_parameters(func):
    return [p.name for p in inspect.signature(func).parameters.values()
            if p.annotation in ("int", int)]


def test_every_public_size_argument_is_in_the_table():
    sized = {}
    for name in middleorder.__all__:
        obj = getattr(middleorder, name)
        if inspect.isfunction(inspect.unwrap(obj)) and size_parameters(obj):
            sized[name] = set(size_parameters(obj))
    assert sized == {name: set(sizes) for name, sizes in OVER_BUDGET.items()
                     if name not in NOT_EXPORTED}


@pytest.mark.parametrize("name", sorted(OVER_BUDGET))
def test_malformed_and_oversized_sizes_are_refused(name):
    func = getattr(orders if name in NOT_EXPORTED else middleorder, name)
    params = size_parameters(func)
    for param, over in OVER_BUDGET[name].items():
        for bad in (*MALFORMED, over):
            with pytest.raises(ValueError):
                func(**{**dict.fromkeys(params, 1), param: bad})


def test_refusal_names_the_bound_and_never_prints_a_huge_n():
    with pytest.raises(ValueError, match=r"n must be in \[1, 14\].*not 20000$"):
        all_involutions(20000)
    with pytest.raises(ValueError, match=r"n must be in \[0, 20000\].*an int of 16610 bits$"):
        involution_count(10**5000)
    with pytest.raises(ValueError, match="k must be an int, not bool"):
        check_size(True, name="k")
    assert check_size(0, least=0) == 0


def test_upper_covers_refuses_a_word_whose_covers_pass_its_budget():
    most = 4096
    # n - 1 covers, each a tuple of n pointers: ~134 MB at the bound
    assert (most - 1) * sys.getsizeof((0,) * most) < 135 * 10**6
    assert orders.upper_covers(long_element(most)) == []  # the top has no covers
    with pytest.raises(ValueError, match=r"in \[1, 4096\] \(n - 1 covers of n entries\)"):
        orders.upper_covers(identity(most + 1))


# Each public name that takes a word, a vector or a mesh pattern: a valid
# value for each such argument.
WORDS = {
    "MeshPattern": {"pattern": (1, 2), "mesh": {(0, 0)}},
    "avoids_classical": {"w": (2, 1), "p": (1,)},
    "bruhat_leq": {"v": (1, 2), "w": (2, 1)},
    "clusters": {"coords": (0, 1)},
    "cover_mesh_witness": {"v": (1, 2), "w": (2, 1)},
    "euler_characteristic": {"w": (2, 1)},
    "from_inversion_sequence": {"coords": (0, 1)},
    "inversion_sequence": {"w": (2, 1)},
    "involution_seq_check": {"coords": (0, 1)},
    "is_boolean_interval": {"v": (1, 2), "w": (2, 1)},
    "is_involution": {"w": (2, 1)},
    "is_parking_function": {"prefs": (1, 1)},
    "is_regular": {"v": (2, 1)},
    "is_slow_climbing": {"coords": (0, 1)},
    "join": {"v": (1, 2), "w": (2, 1)},
    "maximal_slow_climbing_below": {"w": (2, 1)},
    "meet": {"v": (1, 2), "w": (2, 1)},
    "mesh_contains": {"w": (2, 1), "m": MeshPattern((1,))},
    "middle_leq": {"v": (1, 2), "w": (2, 1)},
    "mobius_involution_ideal": {"w": (2, 1)},
    "mobius_middle": {"v": (1, 2), "w": (2, 1)},
    "pf_join": {"p": (1, 1), "q": (1, 2)},
    "pf_leq": {"p": (1, 1), "q": (1, 2)},
    "pf_meet": {"p": (1, 1), "q": (1, 2)},
    "pseudocomplement": {"v": (2, 1)},
    "rank": {"w": (2, 1)},
    "relative_pseudocomplement": {"v": (1, 2), "w": (2, 1)},
    "slow_climb_decompose": {"coords": (0, 1)},
    "upper_covers": {"w": (2, 1)},
    "weak_leq": {"v": (1, 2), "w": (2, 1)},
}
WORD_ANNOTATIONS = {"Perm", "InvSeq", "Sequence[int]", "ParkingFunction", "MeshPattern",
                    "frozenset[tuple[int, int]]"}


def word_parameters(obj):
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):  # TOP and PosetError have none to read
        return []
    return [p.name for p in params if p.annotation in WORD_ANNOTATIONS]


def test_every_public_word_argument_is_in_the_table():
    taking = {}
    for name in middleorder.__all__:
        params = word_parameters(getattr(middleorder, name))
        if params:
            taking[name] = set(params)
    assert taking == {name: set(words) for name, words in WORDS.items()}


@pytest.mark.parametrize("name", sorted(WORDS))
def test_non_iterable_words_are_refused(name):
    func = getattr(middleorder, name)
    for param in WORDS[name]:
        # {1} is an iterable mesh whose cells are not
        for bad in (5, None, "ab", [None], (True,), *([{1}] if param == "mesh" else [])):
            with pytest.raises(ValueError):
                func(**{**WORDS[name], param: bad})


PARSERS = [permutations.parse_permutation, permutations.parse_inversion_sequence,
           parking.parse_parking, posets.FinitePoset.from_edge_list, posets.FinitePoset.from_dot]


@pytest.mark.parametrize("parse", PARSERS, ids=[parse.__name__ for parse in PARSERS])
def test_parsers_refuse_what_is_not_text(parse):
    for bad in (None, 5, b"1,2", ["1"]):
        with pytest.raises(ValueError):
            parse(bad)


def test_words_and_text_from_outside_are_checked_in_one_place():
    # The int-entry test and the comma split, each with the function it is in.
    found = []
    for path in sorted(pathlib.Path(middleorder.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                owner.update(dict.fromkeys(ast.walk(func), func.name))  # inner defs come later
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and re.fullmatch(
                    r"set\(map\(type, .+\)\) != \{int\}", ast.unparse(node)):
                found.append(("int entries", path.stem, owner.get(node)))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "split" and list(map(ast.unparse, node.args)) == ["','"]):
                found.append(("comma split", path.stem, owner.get(node)))
    assert sorted(found) == [("comma split", "permutations", "_parse_ints"),
                             ("int entries", "permutations", "_int_word")]


class Enumerated(Exception):
    """Raised by an enumerator patched in place of the real one."""


def enumerated(*_args):
    raise Enumerated


# builder, its largest size, the element count at size n, and the
# enumerator it calls first
BUILDERS = [
    (orders.middle_poset, 8, math.factorial, (orders, "all_permutations")),
    (involutions.involution_poset, 11, involution_count, (involutions, "all_involutions")),
    (heyting.regular_subposet, 17, lambda n: 2 ** (n - 1), (heyting, "regular_elements")),
    (parking.parking_poset, 6, lambda n: (n + 1) ** (n - 1) + 1,
     (parking, "all_parking_functions")),
    (posets.boolean_lattice, 16, lambda k: 2**k, (itertools, "combinations")),
]


@pytest.mark.parametrize("builder, most, count, enumerator", BUILDERS,
                         ids=[b[0].__name__ for b in BUILDERS])
def test_builders_refuse_an_oversized_poset_before_enumerating(
    monkeypatch, builder, most, count, enumerator
):
    assert count(most) <= POSET_SIZE_LIMIT < count(most + 1)
    monkeypatch.setattr(*enumerator, enumerated)
    with pytest.raises(Enumerated):
        builder(most)
    with pytest.raises(ValueError, match="poset size limit"):
        builder(most + 1)



# Values that are no valid argument anywhere, or valid but cheap.
JUNK = (None, True, 2.0, math.nan, -1, 0, 2**70, -10**5000, "3", "", "ab", b"1,2", [], [None],
        (True,), (1, 2**70), ((0, 1), 5), [[1], [2]], {1}, {"a": 1}, object())
# Valid positional arguments of each callable under test, other than the
# public size- and word-taking names, which take theirs from the tables above.
VALID = {
    middleorder.FinitePoset: ([0], [1]),
    middleorder.PosetError: ("message",),
    posets.FinitePoset.from_covers: ([0, 1], [(0, 1)]),
    posets.FinitePoset.from_leq: ([0, 1], operator.eq),
    posets.FinitePoset.from_vectors: ([0, 1], [(0,), (1,)]),
    posets.FinitePoset.from_edge_list: ("a < b\n",),
    posets.FinitePoset.from_dot: ('digraph p {\n  "a" -> "b";\n}\n',),
    posets.chain(2).relabeled: ("ab",),
    posets.chain: (2,),
    posets.antichain: (2,),
    posets.boolean_lattice: (2,),
    posets.birkhoff: (2, [(0, 1)]),
    permutations.parse_permutation: ("21",),
    permutations.parse_inversion_sequence: ("0,1",),
    parking.parse_parking: ("1,1",),
}


def test_junk_in_any_argument_position_returns_or_raises_value_error():
    calls = dict(VALID)
    for name in middleorder.__all__:
        obj = getattr(middleorder, name)
        if name in WORDS:
            calls[obj] = tuple(WORDS[name].values())
        elif name in OVER_BUDGET:
            calls[obj] = (2,) * len(OVER_BUDGET[name])
        else:
            assert obj in calls or not callable(obj), name
    failures = []
    for func, args in calls.items():
        func(*args)
        for position, bad in itertools.product(range(len(args)), JUNK):
            try:
                func(*args[:position], bad, *args[position + 1:])
            except ValueError:
                pass
            except Exception as exc:
                failures.append((getattr(func, "__qualname__", func), position,
                                 permutations._shown(bad), repr(exc)[:80]))
    assert not failures, failures


def test_refusals_show_a_long_word_in_bounded_form():
    n = 10**5
    word = list(range(1, n + 1))
    word[-1] = 1  # one repeated value: no permutation, involution or sequence
    refusals = [
        lambda: permutations.validate_permutation(word),
        lambda: permutations.validate_inversion_sequence(word),
        lambda: permutations._int_word(word + [True], "word"),
        lambda: permutations.parse_permutation(",".join(map(str, word)) + ",x"),
        lambda: parking.validate_parking_function([n] * n),
        lambda: parking._preferences(word + [n + 2]),
        lambda: middleorder.is_boolean_interval(long_element(n), identity(n)),
        lambda: involutions._involution_code((2, 3, 1) + tuple(range(4, n + 1))),
        lambda: involutions.slow_climb_decompose([0] * (n - 2) + [1, 1]),
        # an involution with the ascent 1 < 3 in its code
        lambda: involutions.slow_climb_decompose((0, 1, 1, 3) + (0,) * (n - 4)),
        lambda: check_size(-10**5000),
        lambda: posets.FinitePoset.from_covers(["a" * n + "\n", "b"], [(0, 1)]).to_edge_list(),
        lambda: counting.table_rows("a" * n, 3),
    ]
    for refuse in refusals:
        with pytest.raises(ValueError) as err:
            refuse()
        assert len(str(err.value)) < 200, str(err.value)[:300]
    result = CliRunner().invoke(main, ["query", "invseq", ",".join(map(str, word))])
    assert result.exit_code == 2 and len(result.output) < 400, result.output[:500]
