"""Layered benchmark of middleorder: `query`, `oracle` and `cli` workloads.

    python3 perfbench/run.py --workload query --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn
    python3 perfbench/run.py --workload all --smoke --seconds 0   # tiny sizes
    python3 perfbench/run.py --probe-reach                # oracle reach, informational

The library is imported from the src/ directory next to this one, never
from an installed copy.  Each pass runs in a fresh interpreter
(worker.py).  A run repeats passes while another fits in --seconds of
operation time at the reference speed (calibrate.py), and always runs
at least one.  With --trace 0 the last line of output holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of one
traced pass, run beside one untraced pass to give the tracing overhead.
README.md says why each workload exists.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("query", "oracle", "cli")
PASS_TIMEOUT_S = 170
PROBE_BUDGET_S = 10  # seconds per --probe-reach attempt
SETUP_PROBES = 11
# What a fresh interpreter imports before the first operation may start.
SETUP_IMPORTS = {
    "query": "middleorder",
    "oracle": "middleorder, middleorder.verify",
    "cli": "middleorder.cli",
}
# The largest n each verify suite reaches, whatever n_max asks for.
SUITE_HARD_CAPS = {
    "bijection": 8, "sandwich": 6, "mesh": 6, "tables": 8,
    "mobius": 5, "involutions": 8, "heyting": 8, "parking": 7,
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC), PYTHONHASHSEED="0")
    return env


def run_child(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(
        cmd, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def setup_seconds(workload: str) -> float:
    """Import time of one fresh interpreter, at the reference speed."""
    samples = [calibrate.kernel_seconds() for _ in range(calibrate.MIN_SAMPLES)]
    code = (
        "import time; start = time.perf_counter(); "
        f"import {SETUP_IMPORTS[workload]}; print(time.perf_counter() - start)"
    )
    proc = run_child([sys.executable, "-c", code], timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import failed:\n{proc.stderr}")
    samples += [calibrate.kernel_seconds() for _ in range(calibrate.MIN_SAMPLES)]
    return float(proc.stdout) * calibrate.REF_S / statistics.median(samples)


def run_pass(workload: str, seed: int, index: int, smoke: bool, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload,
           "--seed", str(seed), "--pass-index", str(index)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd.append("--trace")
    try:
        proc = run_child(cmd, PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Metrics

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
    ("p50_ms", "ms"), ("p90_ms", "ms"), ("peak_rss_mb", "MB"),
)


def end_to_end(setup: list[float], passes: list[dict]) -> tuple[dict, dict]:
    """Metric values and the sample count behind each."""
    latencies = [t for p in passes for t in p["latencies"]]
    walls = [sum(p["latencies"]) for p in passes]
    cuts = statistics.quantiles(latencies, n=10)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "ops_per_s": len(latencies) / sum(walls),
        "p50_ms": statistics.median(latencies) * 1000,
        "p90_ms": cuts[8] * 1000,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    samples = {
        "setup_s": f"{len(setup)} fresh interpreters",
        "wall_s": f"{len(walls)} passes",
        "ops_per_s": f"{len(latencies)} ops",
        "p50_ms": f"{len(latencies)} ops",
        "p90_ms": f"{len(latencies)} ops",
        "peak_rss_mb": f"{len(passes)} passes",
    }
    return values, samples


def _fn(name, field):
    return lambda f, c, ops: f.get(name, {}).get(field, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


# (name, unit, better, value from (functions, counters, ops of the pass)).
# trace.overhead is added by traced_metrics.
PER_LAYER = [
    ("permutations.inversion_sequence.calls", "count", "lower", _fn("permutations.inversion_sequence", "calls")),
    ("permutations.inversion_sequence.self_s", "s", "lower", _fn("permutations.inversion_sequence", "self_s")),
    ("permutations.from_inversion_sequence.calls", "count", "lower", _fn("permutations.from_inversion_sequence", "calls")),
    ("permutations.from_inversion_sequence.self_s", "s", "lower", _fn("permutations.from_inversion_sequence", "self_s")),
    ("permutations.validate_permutation.calls", "count", "lower", _fn("permutations.validate_permutation", "calls")),
    ("permutations.inversion_sequence.reuse", "calls/input", "lower",
     lambda f, c, ops: _ratio(f["permutations.inversion_sequence"]["calls"],
                              c.get("permutations.inversion_sequence.distinct", 0))),
    ("permutations.validate_permutation.per_op", "calls/op", "lower",
     lambda f, c, ops: _ratio(f["permutations.validate_permutation"]["calls"], ops)),
]
PER_LAYER += [
    (f"orders.{fn}.self_s", "s", "lower", _fn(f"orders.{fn}", "self_s"))
    for fn in ("middle_leq", "meet", "join", "mobius_middle", "upper_covers", "middle_poset")
]
PER_LAYER += [
    ("orders.middle_leq.calls", "count", "lower", _fn("orders.middle_leq", "calls")),
    ("orders.middle_leq.true_ratio", "ratio", "higher",
     lambda f, c, ops: _ratio(c.get("orders.middle_leq.true", 0), f["orders.middle_leq"]["calls"])),
]
PER_LAYER += [
    (f"{fn}.self_s", "s", "lower", _fn(fn, "self_s"))
    for fn in (
        "heyting.relative_pseudocomplement", "heyting.pseudocomplement", "heyting.regular_subposet",
        "involutions.involution_poset", "involutions.all_involutions",
        "involutions.maximal_slow_climbing_below",
        "parking.parking_poset", "parking.all_parking_functions",
        "posets.FinitePoset.init", "posets.from_covers", "posets.from_leq",
    )
]
PER_LAYER += [
    ("parking.pf_leq.calls", "count", "lower", _fn("parking.pf_leq", "calls")),
    ("posets.elements", "count", "lower", lambda f, c, ops: c.get("posets.elements", 0)),
    ("posets.covers", "count", "lower", lambda f, c, ops: c.get("posets.covers", 0)),
    ("posets.comparable_pairs", "count", "lower", lambda f, c, ops: c.get("posets.comparable_pairs", 0)),
    ("posets.cover_ratio", "ratio", "higher",
     lambda f, c, ops: _ratio(c.get("posets.covers", 0), c.get("posets.comparable_pairs", 0))),
]
PER_LAYER += [
    (f"posets.{fn}.self_s", "s", "lower", _fn(f"posets.{fn}", "self_s"))
    for fn in ("mobius", "is_graded", "is_lattice", "is_distributive", "find_pentagon",
               "are_isomorphic", "induced_subposet", "enumerate_intervals", "to_dot")
]
PER_LAYER += [
    (f"verify.{suite}.s", "s", "lower", _fn(f"verify.{suite}", "total_s"))
    for suite in SUITE_HARD_CAPS
]
PER_LAYER += [
    ("verify.checks", "count", "higher", lambda f, c, ops: c.get("verify.checks", 0)),
    ("verify.checks_failed", "count", "lower", lambda f, c, ops: c.get("verify.checks_failed", 0)),
]
PER_LAYER += [
    (f"counting.{fn}.self_s", "s", "lower", _fn(f"counting.{fn}", "self_s"))
    for fn in ("intervals_by_rank", "boolean_by_rank", "polynomial_row", "stirling_first_unsigned",
               "rows_to_csv", "rows_to_json", "rows_to_bfile")
]
PER_LAYER += [
    ("cli.import_s", "s", "lower", lambda f, c, ops: _median_or_zero(c.get("cli.import_s", []))),
]
PER_LAYER += [
    (f"cli.{cmd}.s", "s", "lower", _fn(f"cli.{cmd}", "total_s")) for cmd in ("query", "table", "hasse")
]
OVERHEAD = ("trace.overhead", "ratio", "lower")


def traced_metrics(untraced: dict, traced: dict) -> dict:
    summary = traced["trace"]
    functions, counters = summary["functions"], summary["counters"]
    ops = len(traced["latencies"])
    # Span times scaled to the reference speed like the pass they ran in.
    speed = sum(traced["latencies"]) / sum(traced["raw_latencies"])
    values = {}
    for name, unit, _, fn in PER_LAYER:
        value = fn(functions, counters, ops)
        values[name] = (value * speed if unit == "s" else value, unit)
    values[OVERHEAD[0]] = (sum(traced["latencies"]) / sum(untraced["latencies"]), OVERHEAD[1])
    return values


# ---------------------------------------------------------------------------
# Provenance and report


def provenance(workload: str, seed: int, smoke: bool, trace: bool) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": workload, "seed": seed if workload != "oracle" else None,
        "commit": commit, "python": platform.python_version(), "nproc": os.cpu_count(),
        "src_lines": src_lines, "smoke": smoke, "trace": trace,
    }


def report(workload: str, prov: dict, metrics: dict, samples: dict, passes: list[dict],
           attempted: int, failed: int, failures: list[str]) -> None:
    seed = "none (exhaustive)" if prov["seed"] is None else prov["seed"]
    print(f"== {workload}  seed {seed}  commit {prov['commit'][:12]}  "
          f"python {prov['python']}  nproc {prov['nproc']}")
    for name, (value, unit) in metrics.items():
        note = f"  ({samples[name]})" if name in samples else ""
        print(f"   {name:<46} {value:>14.6g} {unit:<12}{note}")
    raw_wall = statistics.median(sum(p["raw_latencies"]) for p in passes)
    print(f"   {'uncalibrated wall_s (informational)':<46} {raw_wall:>14.6g} {'s':<12}  ({len(passes)} passes)")
    print(f"   {'fail_ratio':<46} {failed / attempted:>14.6g} {'':<12}  ({failed} of {attempted} ops)")
    print(f"   {'src_lines (informational, not gated)':<46} {prov['src_lines']:>14}")
    for message in failures:
        print(f"   FAILED {message}")
    print(json.dumps({"provenance": prov}))


def measure(workload: str, seed: int, seconds: float, smoke: bool, trace: bool) -> dict:
    prov = provenance(workload, seed, smoke, trace)
    if trace:
        untraced = run_pass(workload, seed, 0, smoke, trace=False)
        traced = run_pass(workload, seed, 0, smoke, trace=True)
        passes = [untraced, traced]
        metrics = traced_metrics(untraced, traced)
        samples = {name: f"1 traced pass of {len(traced['latencies'])} ops" for name in metrics}
    else:
        setup_seconds(workload)  # warm-up: the first import in a fresh checkout compiles bytecode
        setup = [setup_seconds(workload) for _ in range(3 if smoke else SETUP_PROBES)]
        passes = []
        measured = 0.0
        while True:
            passes.append(run_pass(workload, seed, len(passes), smoke, trace=False))
            # Reference-speed seconds, so that the pass count does not
            # follow the machine's drift.
            measured += sum(passes[-1]["latencies"])
            if measured * (len(passes) + 1) / len(passes) > seconds:
                break
        values, samples = end_to_end(setup, passes)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [m for p in passes for m in p["failures"]][:10]
    untraced_passes = passes[:1] if trace else passes
    report(workload, prov, metrics, samples, untraced_passes, attempted, failed, failures)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# Oracle reach (informational, never part of a gated run)


def probe_reach() -> dict:
    """Largest n_max, up to each suite's hard cap, that passes within PROBE_BUDGET_S."""
    reach = {}
    for suite, cap in SUITE_HARD_CAPS.items():
        best = None
        for n in range(1, cap + 1):
            code = (
                "import sys; from middleorder import verify; "
                f"sys.exit(0 if all(r.ok for r in verify.run_suite({suite!r}, {n})) else 1)"
            )
            start = time.monotonic()
            try:
                proc = run_child([sys.executable, "-c", code], timeout=PROBE_BUDGET_S)
            except subprocess.TimeoutExpired:
                break
            if proc.returncode != 0:
                break
            best = {"n_max": n, "seconds": time.monotonic() - start, "hard_cap": cap}
        reach[suite] = best
        shown = "none" if best is None else f"n_max {best['n_max']} of {cap} in {best['seconds']:.2f} s"
        print(f"   {suite:<12} {shown}", flush=True)
    return reach


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26,
                        help="operation time per run, in seconds at the reference speed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--probe-reach", action="store_true",
                        help="report the oracle reach of each verify suite and exit")
    args = parser.parse_args(argv)

    if not (SRC / "middleorder" / "__init__.py").is_file():
        print(f"error: no middleorder package under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the harness and every process it starts, so that the
    # calibration samples run where the measured work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        if args.probe_reach:
            print(f"== oracle reach, {PROBE_BUDGET_S} s per attempt (informational)")
            print(json.dumps({"oracle_reach": probe_reach()}))
            return 0
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: measure(w, args.seed, args.seconds, args.smoke, bool(args.trace)) for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
