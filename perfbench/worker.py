"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py <query|oracle|cli> --seed S --pass-index K
        [--smoke] [--trace]

Started by run.py with the checkout's src/ on PYTHONPATH.  Prints one
JSON object: the latency of every operation, at the reference speed
(calibrate.py) and as measured, the failures found by the correctness
checks (which run outside the timed regions), the peak RSS and, when
traced, the per-function summary of tracer.Tracer.  A traced pass also
writes its spans to out/<workload>-spans.json beside this file.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import reference as ref
import tracer as tracing

HERE = Path(__file__).resolve().parent

# Each pass repeats this cycle of 20 calls.  By cost the calls form four
# groups: one decode (~0.5 ms), six calls encoding one permutation
# (~50 ms), ten encoding two (~100 ms) and three upper_covers (~500 ms),
# i.e. 5 %, 30 %, 50 % and 15 % of the calls.  p50 then falls 30 % into
# the two-encode group and p90 a third into the upper_covers group, never
# on a boundary between two groups.
QUERY_CYCLE = (
    "upper_covers", "inversion_sequence", "meet", "middle_leq", "pseudocomplement",
    "join", "mobius_middle", "from_inversion_sequence", "relative_pseudocomplement",
    "euler_characteristic", "upper_covers", "meet", "mobius_involution_ideal", "join",
    "inversion_sequence", "mobius_middle", "middle_leq", "upper_covers",
    "relative_pseudocomplement", "mobius_involution_ideal",
)

# verify n_max pinned to the suite defaults, so that the work stays fixed
# when a later change raises a suite's hard cap.
ORACLE_N_MAX = {
    "bijection": 7, "sandwich": 6, "mesh": 6, "tables": 8,
    "mobius": 5, "involutions": 8, "heyting": 6, "parking": 7,
}

SIZES = {
    False: {
        "query_n": 1000, "query_cycles": 5,
        "oracle_n_max": ORACLE_N_MAX, "oracle_poset_n": 7,
        "cli_small_n": 3, "cli_large_n": 300, "cli_rounds": 4,
        "cli_table_n": 50, "cli_hasse_n": 5, "cli_parking_n": 4,
    },
    True: {
        "query_n": 30, "query_cycles": 1,
        "oracle_n_max": {suite: 4 for suite in ORACLE_N_MAX}, "oracle_poset_n": 4,
        "cli_small_n": 3, "cli_large_n": 30, "cli_rounds": 1,
        "cli_table_n": 6, "cli_hasse_n": 3, "cli_parking_n": 3,
    },
}


class Pass:
    """Latencies and check outcomes of one pass."""

    def __init__(self, tracer=None, sampler=None):
        self.latencies: list[float] = []  # seconds, calibration time excluded
        self.windows: list[tuple[float, float]] = []
        self.failures: list[str] = []
        self.failed = 0
        self.tracer = tracer
        self.sampler = sampler

    def run(self, kind, call, check):
        """Time call(); then, untimed, count it failed if it raised or check(result) is false."""
        if self.tracer is not None:
            self.tracer.op_id = len(self.latencies)
        stolen = self.sampler.stolen if self.sampler else 0.0
        error = None
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising op is a failed op, not a crash
            error = exc
        end = time.perf_counter()
        if self.sampler:
            stolen = self.sampler.stolen - stolen
        self.latencies.append(end - start - stolen)
        self.windows.append((start, end))
        if error is not None:
            self.fail(f"{kind}: raised {error!r}")
        elif not _safe(check, result):
            self.fail(f"{kind}: wrong answer")

    def calibrated(self) -> list[float]:
        """Latencies at the reference speed (see calibrate.py)."""
        return [t / self.sampler.slowdown(*w) for t, w in zip(self.latencies, self.windows)]

    def fail(self, message):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)


# ---------------------------------------------------------------------------
# query


def query_pass(p: Pass, seed: int, index: int, sizes: dict) -> None:
    from middleorder import counting, heyting, involutions, orders, permutations

    n = sizes["query_n"]
    rng = random.Random(f"query/{seed}/{index}")
    for _ in range(sizes["query_cycles"]):
        for kind in QUERY_CYCLE:
            v, w = ref.random_permutation(rng, n), ref.random_permutation(rng, n)
            x, y = ref.encode(v), ref.encode(w)
            if kind == "inversion_sequence":
                p.run(kind, lambda: permutations.inversion_sequence(v), lambda r: r == x)
            elif kind == "from_inversion_sequence":
                code = ref.random_inversion_sequence(rng, n)
                p.run(kind, lambda: permutations.from_inversion_sequence(code),
                      lambda r: ref.decodes_to(code, r))
            elif kind == "middle_leq":
                p.run(kind, lambda: orders.middle_leq(v, w), lambda r: r == ref.leq_coords(x, y))
            elif kind == "meet":
                p.run(kind, lambda: orders.meet(v, w),
                      lambda r: ref.decodes_to(ref.meet_coords(x, y), r))
            elif kind == "join":
                p.run(kind, lambda: orders.join(v, w),
                      lambda r: ref.decodes_to(ref.join_coords(x, y), r))
            elif kind == "mobius_middle":
                p.run(kind, lambda: orders.mobius_middle(v, w),
                      lambda r: r == ref.mobius_coords(x, y))
            elif kind == "relative_pseudocomplement":
                p.run(kind, lambda: heyting.relative_pseudocomplement(v, w),
                      lambda r: ref.decodes_to(ref.arrow_coords(x, y), r))
            elif kind == "pseudocomplement":
                p.run(kind, lambda: heyting.pseudocomplement(v),
                      lambda r: ref.decodes_to(ref.pseudo_coords(x), r))
            elif kind == "euler_characteristic":
                p.run(kind, lambda: counting.euler_characteristic(v), lambda r: r == ref.euler(x))
            elif kind == "mobius_involution_ideal":
                u = ref.random_involution(rng, n)
                p.run(kind, lambda: involutions.mobius_involution_ideal(u),
                      lambda r: r == ref.mobius_involution(u))
            else:
                p.run(kind, lambda: orders.upper_covers(v), lambda r: ref.upper_covers_ok(v, r))


# ---------------------------------------------------------------------------
# oracle


def oracle_pass(p: Pass, sizes: dict) -> None:
    """Ten verification steps: the eight suites, the middle_poset build and
    the Moebius check over all its elements."""
    from middleorder import orders, permutations, verify

    for suite, n_max in sizes["oracle_n_max"].items():
        p.run(f"verify.{suite}", lambda: verify.run_suite(suite, n_max),
              lambda results: bool(results) and all(r.ok for r in results))
    n = sizes["oracle_poset_n"]
    e = permutations.identity(n)
    box: dict = {}

    def build():
        box["poset"] = poset = orders.middle_poset(n)
        box["bottom"] = poset.index_of(e)
        return poset

    p.run("middle_poset", build, lambda poset: len(poset.labels) == math.factorial(n)
          and len(poset.covers) == ref.covering_relation_count(n))
    poset, bottom = box.get("poset"), box.get("bottom")
    if poset is None:
        return
    zero = ref.encode(e)
    p.run("mobius",
          lambda: [(poset.mobius(bottom, i), orders.mobius_middle(e, w)) for i, w in enumerate(poset.labels)],
          lambda values: all(a == b == ref.mobius_coords(zero, ref.encode(w))
                             for (a, b), w in zip(values, poset.labels)))


# ---------------------------------------------------------------------------
# cli

QUERY_OPS = ("invseq", "perm", "meet", "join", "mobius", "mobius-inv",
             "heyting", "pseudo", "euler", "covers")
TABLE_KINDS = ("intervals", "boolean", "euler", "stirling")
TABLE_FORMATS = ("csv", "json", "oeis")
HASSE_ORDERS = ("middle", "weak", "bruhat", "involutions", "regular")


def _query_case(op, rng, n):
    """(argv, check on stdout) of one `query` invocation on fresh inputs."""
    v, w = ref.random_permutation(rng, n), ref.random_permutation(rng, n)
    x, y = ref.encode(v), ref.encode(w)
    fv, fw = ref.format_perm(v), ref.format_perm(w)

    def perm_is(coords):
        return lambda out: ref.decodes_to(coords, ref.parse_perm(out))

    if op == "invseq":
        return [op, fv], lambda out: out.strip() == ",".join(map(str, x))
    if op == "perm":
        code = ref.random_inversion_sequence(rng, n)
        return [op, ",".join(map(str, code))], perm_is(code)
    if op == "meet":
        return [op, fv, fw], perm_is(ref.meet_coords(x, y))
    if op == "join":
        return [op, fv, fw], perm_is(ref.join_coords(x, y))
    if op == "mobius":
        return [op, fv, fw], lambda out: int(out) == ref.mobius_coords(x, y)
    if op == "mobius-inv":
        u = ref.random_involution(rng, n)
        return [op, ref.format_perm(u)], lambda out: int(out) == ref.mobius_involution(u)
    if op == "heyting":
        return [op, fv, fw], perm_is(ref.arrow_coords(x, y))
    if op == "pseudo":
        return [op, fv], perm_is(ref.pseudo_coords(x))
    if op == "euler":
        return [op, fv], lambda out: int(out) == ref.euler(x)
    return [op, fv], lambda out: ref.upper_covers_ok(v, map(ref.parse_perm, out.split()))


def _table_check(kind, fmt, n):
    """Every row equals the reference, and rows n <= 5 of intervals and
    boolean equal the paper's Tables 1 and 2."""
    expected = ref.table_rows(kind, n)
    lengths = [len(row) for row in expected]
    paper = {"intervals": ref.TABLE1, "boolean": ref.TABLE2}.get(kind, {})

    def check(out):
        rows = ref.parse_table(out, fmt, lengths)
        return rows == expected and all(rows[m - 1] == paper[m] for m in paper if m <= n)

    return check


def _hasse_check(order, n):
    from middleorder.posets import FinitePoset

    expected = ref.hasse_covers(order, n)
    return lambda out: FinitePoset.from_dot(out).cover_labels() == expected


def cli_script(seed: int, sizes: dict) -> list:
    """The fixed, seeded list of (argv, check) invocations of one pass."""
    rng = random.Random(f"cli/{seed}")
    script = [
        (["query", "meet", "312", "231"], lambda out: out.strip() == "132"),
        (["query", "invseq", "415623"], lambda out: out.strip() == "0,0,0,3,2,2"),
    ]
    for _ in range(sizes["cli_rounds"]):
        for n in (sizes["cli_small_n"], sizes["cli_large_n"]):
            for op in QUERY_OPS:
                argv, check = _query_case(op, rng, n)
                script.append((["query", *argv], check))
    n = sizes["cli_table_n"]
    for kind in TABLE_KINDS:
        for fmt in TABLE_FORMATS:
            script.append((["table", kind, "--n", str(n), "--format", fmt], _table_check(kind, fmt, n)))
    for order in HASSE_ORDERS:
        script.append((["hasse", "--order", order, "--n", str(sizes["cli_hasse_n"])],
                       _hasse_check(order, sizes["cli_hasse_n"])))
    parking_n = sizes["cli_parking_n"]
    script.append((["hasse", "--order", "parking", "--n", str(parking_n)],
                   _hasse_check("parking", parking_n)))
    return script


def cli_pass(p: Pass, seed: int, sizes: dict, traced: bool) -> list:
    """Run the script, one fresh process per invocation; return the
    children's trace payloads when traced."""
    prefix = [sys.executable, str(HERE / "traced_cli.py")] if traced else [sys.executable, "-m", "middleorder.cli"]
    payloads = []
    # Samples that run beside a child on its CPU read slow by the child's
    # load, so they run between children instead.
    p.sampler.pause()
    for argv, check in cli_script(seed, sizes):
        p.sampler.burst()
        outcome = {}

        def invoke():
            outcome["proc"] = proc = subprocess.run(
                prefix + argv, capture_output=True, text=True, timeout=120
            )
            return proc

        def judge(proc):
            return proc.returncode == 0 and check(proc.stdout)

        p.run(argv[0], invoke, judge)
        proc = outcome.get("proc")
        if traced and proc is not None:
            for line in proc.stderr.splitlines():
                if line.startswith(tracing.TRACE_MARK):
                    payload = json.loads(line[len(tracing.TRACE_MARK):])
                    payload["argv"] = argv
                    payloads.append(payload)
    return payloads


def _safe(check, result) -> bool:
    try:
        return bool(check(result))
    except (ValueError, KeyError, IndexError, TypeError):
        return False


# ---------------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("query", "oracle", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sizes = SIZES[args.smoke]

    import middleorder

    expected_src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if expected_src not in Path(middleorder.__file__).resolve().parents:
        raise SystemExit(f"middleorder imported from {middleorder.__file__}, not from {expected_src}")
    tracer = None
    if args.trace and args.workload != "cli":
        import middleorder.verify  # noqa: F401  (so its by-value imports get patched too)

        tracer = tracing.Tracer()
        tracing.install(tracer)
    out: dict = {}
    with calibrate.Sampler() as sampler:
        p = Pass(tracer, sampler)
        if args.workload == "query":
            query_pass(p, args.seed, args.pass_index, sizes)
        elif args.workload == "oracle":
            oracle_pass(p, sizes)
        else:
            payloads = cli_pass(p, args.seed, sizes, args.trace)
    if args.workload == "cli" and args.trace:
        out["trace"] = tracing.merge([c["summary"] for c in payloads])
        records = [{"op": i, "argv": c["argv"], **c["records"]} for i, c in enumerate(payloads)]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    out.update(
        latencies=p.calibrated(),
        raw_latencies=p.latencies,
        failed=p.failed,
        failures=p.failures,
        rss_mb=resource.getrusage(who).ru_maxrss / 1024,
    )
    if tracer is not None:
        out["trace"] = tracer.summary()
        records = tracer.records()
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"{args.workload}-spans.json", "w") as fh:
            json.dump(records, fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
