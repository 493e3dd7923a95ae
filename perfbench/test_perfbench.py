"""Tests of the benchmark itself, on the smoke sizes.

    python3 -m pytest perfbench
"""
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference as ref
import run
import worker

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_reports_the_declared_metrics(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(name, unit, better) for name, unit, better, _ in run.PER_LAYER] + [run.OVERHEAD]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == per_layer


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_reproduces_the_paper():
    for n in ref.TABLE1:
        assert ref.intervals_row(n) == ref.TABLE1[n]
        assert ref.boolean_row(n) == ref.TABLE2[n]
    assert ref.covering_relation_count(7) == 22212
    assert ref.encode((4, 1, 5, 6, 2, 3)) == (0, 0, 0, 3, 2, 2)
    assert len(ref.hasse_covers("middle", 4)) == ref.covering_relation_count(4)
    assert len(ref.hasse_covers("regular", 4)) == 3 * 2 ** 2


def test_reference_checks_reject_wrong_answers():
    rng = random.Random(0)
    v = ref.random_permutation(rng, 40)
    covers = [tuple(c) for c in _upper_covers(v)]
    assert ref.upper_covers_ok(v, covers)
    assert not ref.upper_covers_ok(v, covers[:-1])
    assert not ref.upper_covers_ok(v, covers[::-1])
    x = ref.encode(v)
    assert ref.decodes_to(x, v)
    assert not ref.decodes_to(x, v[::-1])
    rows = ref.table_rows("intervals", 4)
    csv = "n,k,value\n" + "".join(f"{n},{k},{a}\n" for n, row in enumerate(rows, 1) for k, a in enumerate(row))
    assert ref.parse_table(csv, "csv", [len(r) for r in rows]) == rows
    check = worker._table_check("intervals", "csv", 4)
    assert check(csv) and not check(csv.replace(",49\n", ",48\n"))


def test_a_pass_counts_raising_and_wrong_operations():
    p = worker.Pass()
    p.run("ok", lambda: 1, lambda r: r == 1)
    p.run("wrong", lambda: 2, lambda r: r == 1)
    p.run("raises", lambda: 1 // 0, lambda r: True)
    p.run("check raises", lambda: "x", lambda r: int(r) == 1)
    assert len(p.latencies) == 4 and p.failed == 3


def _upper_covers(v):
    """Upper covers by the definition: raise one inversion-sequence coordinate."""
    x = list(ref.encode(v))
    out = []
    for i in range(len(x)):
        if x[i] < i:
            x[i] += 1
            out.append(next(w for w in _candidates(v) if ref.encode(w) == tuple(x)))
            x[i] -= 1
    return out


def _candidates(v):
    for a in range(len(v)):
        for b in range(a + 1, len(v)):
            w = list(v)
            w[a], w[b] = w[b], w[a]
            yield tuple(w)
