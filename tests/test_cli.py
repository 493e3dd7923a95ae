import json

import pytest
from click.testing import CliRunner

from middleorder import cli, verify
from middleorder.cli import main
from middleorder.posets import FinitePoset


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


# -- table --------------------------------------------------------------------


def test_table_csv(runner):
    result = invoke(runner, "table", "intervals", "--n", "5")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "n,k,value"
    assert "5,0,120" in lines and "5,10,1" in lines and "5,3,562" in lines


def test_table_euler_n1(runner):
    result = invoke(runner, "table", "euler", "--n", "1")
    assert result.exit_code == 0
    assert result.output == "n,k,value\n1,0,1\n"


def test_table_json(runner):
    result = invoke(runner, "table", "boolean", "--n", "5", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["rows"][-1] == {"n": 5, "values": [120, 326, 329, 146, 24]}


def test_table_oeis(runner):
    result = invoke(runner, "table", "intervals", "--n", "2", "--format", "oeis")
    assert result.output == "1 1\n2 2\n3 1\n"


def test_table_bad_args(runner):
    assert invoke(runner, "table", "zeta", "--n", "3").exit_code == 2
    assert invoke(runner, "table", "intervals", "--n", "0").exit_code == 2
    assert invoke(runner, "table", "intervals", "--n", "99").exit_code == 2


# -- hasse --------------------------------------------------------------------


def edge_count(dot_text):
    return dot_text.count("->")


def test_hasse_middle_s3(runner):
    result = invoke(runner, "hasse", "--order", "middle", "--n", "3")
    assert result.exit_code == 0
    poset = FinitePoset.from_dot(result.output)
    assert poset.n == 6 and len(poset.covers) == 7


def test_hasse_trivial(runner):
    result = invoke(runner, "hasse", "--order", "middle", "--n", "1")
    poset = FinitePoset.from_dot(result.output)
    assert poset.n == 1 and not poset.covers


def test_hasse_involutions_n4(runner):
    result = invoke(runner, "hasse", "--order", "involutions", "--n", "4")
    poset = FinitePoset.from_dot(result.output)
    assert poset.n == 10 and len(poset.covers) == 15


def test_hasse_invseq_labels(runner):
    result = invoke(runner, "hasse", "--order", "middle", "--n", "2",
                    "--labels", "invseq")
    assert '"0,0" -> "0,1";' in result.output


def test_hasse_deterministic(runner):
    first = invoke(runner, "hasse", "--order", "parking", "--n", "3").output
    second = invoke(runner, "hasse", "--order", "parking", "--n", "3").output
    assert first == second


def test_hasse_refuses_size_zero_for_every_order(runner):
    for order in ("middle", "bruhat", "weak", "involutions", "regular", "parking"):
        result = invoke(runner, "hasse", "--order", order, "--n", "0")
        assert result.exit_code == 2 and "n must be in [1, " in result.output, order


def test_hasse_limit(runner, monkeypatch):
    assert invoke(runner, "hasse", "--order", "regular", "--n", "6").exit_code == 0
    # middle_poset(7) exists; the diagram limit refuses it before it is built.
    monkeypatch.setattr(cli, "_build_poset", None)
    deep = invoke(runner, "hasse", "--order", "middle", "--n", "7")
    assert deep.exit_code == 2 and "exceeds the diagram limit 6" in deep.output
    unknown = invoke(runner, "hasse", "--order", "middle", "--n", "1", "--limit", "6")
    assert unknown.exit_code == 2 and "No such option" in unknown.output


# -- query --------------------------------------------------------------------


def test_query_examples(runner):
    cases = {
        ("invseq", "415623"): "0,0,0,3,2,2",
        ("perm", "0,0,0,3,2,2"): "415623",
        ("meet", "312", "231"): "132",
        ("join", "312", "231"): "321",
        ("mobius", "123", "213"): "-1",
        ("mobius-inv", "2143"): "1",
        ("heyting", "361592784", "614928537"): "986421537",
        ("pseudo", "361592784"): "421356789",
        ("euler", "123456"): "0",
    }
    for args, expected in cases.items():
        result = invoke(runner, "query", *args)
        assert result.exit_code == 0, result.output
        assert result.output.strip() == expected


def test_query_covers(runner):
    result = invoke(runner, "query", "covers", "123")
    assert result.output.split() == ["213", "132"]


def test_query_errors_exit_2(runner):
    for args in (
        ("query", "frobnicate", "123"),
        ("query", "invseq", "122"),
        ("query", "meet", "123"),
        ("query", "meet", "123", "4321"),
        ("query", "mobius-inv", "231"),
        ("query", "covers", ",".join(map(str, range(1, 4098)))),
    ):
        assert invoke(runner, *args).exit_code == 2


# -- verify --------------------------------------------------------------------


def test_verify_trivial_all(runner):
    result = invoke(runner, "verify", "--suite", "all", "--n-max", "1")
    assert result.exit_code == 0
    assert "[pass]" in result.output
    assert "[FAIL]" not in result.output


def test_verify_bijection(runner):
    result = invoke(runner, "verify", "--suite", "bijection", "--n-max", "4")
    assert result.exit_code == 0
    assert result.output.count("[pass]") >= 8


def test_verify_reports_each_check(runner):
    result = invoke(runner, "verify", "--suite", "tables", "--n-max", "3")
    assert result.exit_code == 0
    assert "checks passed" in result.output.splitlines()[-1]


def test_verify_rejects_what_it_cannot_run(runner):
    assert invoke(runner, "verify", "--n-max", "0").exit_code == 2
    assert invoke(runner, "verify", "--n-max", "-3").exit_code == 2
    bogus = invoke(runner, "verify", "--suite", "bogus")
    assert bogus.exit_code == 2
    assert all(repr(name) in bogus.output for name in (*verify.SUITES, "all"))
    assert invoke(runner, "verify", "--help").exit_code == 0
