"""What each entry point loads, and the lazy public namespace.

The import checks run in fresh interpreters, since this process has
already loaded the whole package.  None of them times anything.
"""
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from click.testing import CliRunner

import middleorder
from middleorder.cli import main

SRC = Path(middleorder.__file__).resolve().parent.parent

# Runs CLI invocations in one interpreter; prints what each printed and
# the middleorder modules loaded after each.
CHILD = """
import contextlib, io, json, sys
import middleorder
report = {"bare": sorted(m for m in sys.modules if m.startswith("middleorder."))}
from middleorder.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv, standalone_mode=False)
    loaded = sorted(m for m in sys.modules if m.startswith("middleorder."))
    report[" ".join(argv)] = {"output": out.getvalue(), "loaded": loaded}
print(json.dumps(report))
"""


def run_fresh(*invocations):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(invocations)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_bare_import_loads_no_submodule():
    assert run_fresh()["bare"] == []


def test_queries_load_neither_verify_nor_posets():
    queries = (
        ["query", "invseq", "415623"],
        ["query", "meet", "312", "231"],
        ["query", "euler", "123456"],
        ["query", "covers", "123"],
    )
    report = run_fresh(*queries)
    assert [report[" ".join(q)]["output"] for q in queries] == [
        "0,0,0,3,2,2\n", "132\n", "0\n", "213\n132\n",
    ]
    loaded = report["query covers 123"]["loaded"]
    assert "middleorder.orders" in loaded
    assert "middleorder.verify" not in loaded and "middleorder.posets" not in loaded


def test_hasse_and_verify_load_what_they_run():
    hasse = ["hasse", "--order", "parking", "--n", "3"]
    check = ["verify", "--suite", "bijection", "--n-max", "3"]
    report = run_fresh(hasse, check)
    runner = CliRunner()
    for argv in (hasse, check):
        # Same output as in this process, where the whole package is loaded.
        assert report[" ".join(argv)]["output"] == runner.invoke(main, argv).output
    assert {"middleorder.parking", "middleorder.posets"} <= set(report[" ".join(hasse)]["loaded"])
    assert "middleorder.verify" not in report[" ".join(hasse)]["loaded"]
    assert "middleorder.verify" in report[" ".join(check)]["loaded"]


# -- the public namespace ------------------------------------------------------


def test_public_names_resolve_to_their_home_module():
    for name in middleorder.__all__:
        home = importlib.import_module(f"middleorder.{middleorder._HOME[name]}")
        assert getattr(middleorder, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from middleorder import *", namespace)
    assert set(middleorder.__all__) <= set(namespace)
    assert namespace["meet"] is middleorder.meet


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        middleorder.no_such_name


def test_dir_lists_every_public_name():
    assert set(middleorder.__all__) <= set(dir(middleorder))


def test_submodules_import_by_name():
    from middleorder import posets, verify

    assert isinstance(verify, types.ModuleType) and isinstance(posets, types.ModuleType)
    assert verify.SUITES and posets.FinitePoset is middleorder.FinitePoset
