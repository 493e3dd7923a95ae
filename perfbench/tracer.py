"""Out-of-program tracing of middleorder's public functions.

`install()` replaces each traced function with a timing wrapper, in its
own module and in every middleorder namespace that imported it by value
(``involutions.middle_leq``, ``verify.inversion_sequence``, the
``verify.SUITES`` table, click command callbacks).  No file under src/
changes.

L0/L1 calls (encode/decode, order operations) are aggregated in memory
per (function, parent), because a verify pass makes millions of them.
L2-L5 calls (construction, oracle algorithms, suites, CLI commands) are
kept as individual spans.  A direct recursive call (the Moebius
recursion, the memoized counting recursions) is counted but folded into
the outermost span.  Self time is a span's duration minus the time its
traced children cover.

This module imports only `time` and `sys` so that a traced CLI child can
time its own `import middleorder.cli` before anything else is loaded.
"""
import sys
import time

# (metric prefix, module, attribute path, aggregate per (function, parent))
TRACED = [
    ("permutations.inversion_sequence", "permutations", "inversion_sequence", True),
    ("permutations.from_inversion_sequence", "permutations", "from_inversion_sequence", True),
    ("permutations.validate_permutation", "permutations", "validate_permutation", True),
    ("orders.middle_leq", "orders", "middle_leq", True),
    ("orders.meet", "orders", "meet", True),
    ("orders.join", "orders", "join", True),
    ("orders.mobius_middle", "orders", "mobius_middle", True),
    ("orders.upper_covers", "orders", "upper_covers", True),
    ("orders.middle_poset", "orders", "middle_poset", False),
    ("heyting.relative_pseudocomplement", "heyting", "relative_pseudocomplement", True),
    ("heyting.pseudocomplement", "heyting", "pseudocomplement", True),
    ("heyting.regular_subposet", "heyting", "regular_subposet", False),
    ("involutions.involution_poset", "involutions", "involution_poset", False),
    ("involutions.all_involutions", "involutions", "all_involutions", False),
    ("involutions.maximal_slow_climbing_below", "involutions", "maximal_slow_climbing_below", True),
    ("parking.parking_poset", "parking", "parking_poset", False),
    ("parking.all_parking_functions", "parking", "all_parking_functions", False),
    ("parking.pf_leq", "parking", "pf_leq", True),
    ("posets.FinitePoset.init", "posets", "FinitePoset.__init__", False),
    ("posets.from_covers", "posets", "FinitePoset.from_covers", False),
    ("posets.from_leq", "posets", "FinitePoset.from_leq", False),
    ("posets.mobius", "posets", "FinitePoset.mobius", False),
    ("posets.is_graded", "posets", "FinitePoset.is_graded", False),
    ("posets.is_lattice", "posets", "FinitePoset.is_lattice", False),
    ("posets.is_distributive", "posets", "FinitePoset.is_distributive", False),
    ("posets.find_pentagon", "posets", "FinitePoset.find_pentagon", False),
    ("posets.are_isomorphic", "posets", "FinitePoset.are_isomorphic", False),
    ("posets.induced_subposet", "posets", "FinitePoset.induced_subposet", False),
    ("posets.enumerate_intervals", "posets", "FinitePoset.enumerate_intervals", False),
    ("posets.to_dot", "posets", "FinitePoset.to_dot", False),
    ("counting.intervals_by_rank", "counting", "intervals_by_rank", False),
    ("counting.boolean_by_rank", "counting", "boolean_by_rank", False),
    ("counting.polynomial_row", "counting", "polynomial_row", False),
    ("counting.stirling_first_unsigned", "counting", "stirling_first_unsigned", False),
    ("counting.rows_to_csv", "counting", "rows_to_csv", False),
    ("counting.rows_to_json", "counting", "rows_to_json", False),
    ("counting.rows_to_bfile", "counting", "rows_to_bfile", False),
]
SUITES = ("bijection", "sandwich", "mesh", "tables", "mobius", "involutions", "heyting", "parking")
TRACED += [(f"verify.{s}", "verify", f"suite_{s}", False) for s in SUITES]
CLI_COMMANDS = ("query", "table", "hasse")
# Prefix of the stderr line on which a traced CLI child reports its trace.
TRACE_MARK = "perfbench-trace: "

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [name, start, child_s, span_id]
        self.spans = []  # (span_id, name, start, end, parent_span_id, op_id, self_s)
        self.agg = {}  # (name, parent name) -> [calls, total_s, self_s]
        self.calls = {}  # name -> calls, recursive ones included
        self.counters = {}
        self.distinct_inputs = set()
        self.op_id = 0
        self._next_id = 0

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, aggregate, before=None, after=None):
        stack, calls = self.stack, self.calls
        calls.setdefault(name, 0)

        def traced(*args, **kwargs):
            calls[name] += 1
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            parent = stack[-1] if stack else None
            frame = [name, 0.0, 0.0, -1]
            if not aggregate:
                frame[3] = self._next_id
                self._next_id += 1
            stack.append(frame)
            frame[1] = start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                self_s = duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if aggregate:
                    key = (name, parent[0] if parent else None)
                    entry = self.agg.get(key)
                    if entry is None:
                        self.agg[key] = [1, duration, self_s]
                    else:
                        entry[0] += 1
                        entry[1] += duration
                        entry[2] += self_s
                else:
                    self.spans.append(
                        (frame[3], name, start, end, self._span_parent(), self.op_id, self_s)
                    )
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _span_parent(self):
        for frame in reversed(self.stack):
            if frame[3] >= 0:
                return frame[3]
        return None

    def summary(self) -> dict:
        """Per-function calls, self time and total span time, plus counters."""
        functions = {name: {"calls": c, "self_s": 0.0, "total_s": 0.0} for name, c in self.calls.items()}
        for (name, _), (_, total, self_s) in self.agg.items():
            functions[name]["self_s"] += self_s
            functions[name]["total_s"] += total
        for _, name, start, end, _, _, self_s in self.spans:
            functions[name]["self_s"] += self_s
            functions[name]["total_s"] += end - start
        counters = dict(self.counters)
        counters["permutations.inversion_sequence.distinct"] = len(self.distinct_inputs)
        return {"functions": functions, "counters": counters}

    def records(self) -> dict:
        """Spans and aggregates in a JSON-ready form."""
        return {
            "spans": [list(s) for s in self.spans],
            "aggregates": [[n, p, *v] for (n, p), v in self.agg.items()],
        }


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED, plus the CLI command callbacks when
    middleorder.cli is loaded."""
    from middleorder import counting, heyting, involutions, orders, parking, permutations, posets, verify

    modules = {
        "permutations": permutations, "orders": orders, "heyting": heyting,
        "involutions": involutions, "parking": parking, "posets": posets,
        "counting": counting, "verify": verify,
    }
    hooks = _hooks(tracer)
    replaced = {}
    for name, module_name, path, aggregate in TRACED:
        owner, attr = _resolve(modules[module_name], path)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(name, raw.__func__, aggregate, *hooks.get(name, ())))
        else:
            wrapped = tracer.wrap(name, raw, aggregate, *hooks.get(name, ()))
            replaced[id(raw)] = wrapped
        setattr(owner, attr, wrapped)
    # Names other modules imported by value still point at the originals.
    namespaces = [m.__dict__ for n, m in list(sys.modules.items()) if n.split(".")[0] == "middleorder"]
    namespaces.append(verify.SUITES)
    for namespace in namespaces:
        for key, value in list(namespace.items()):
            if id(value) in replaced and namespace[key] is not replaced[id(value)]:
                namespace[key] = replaced[id(value)]
    cli = sys.modules.get("middleorder.cli")
    if cli is not None:
        for command in CLI_COMMANDS:
            cmd = cli.main.commands[command]
            cmd.callback = tracer.wrap(f"cli.{command}", cmd.callback, False)


def _hooks(tracer: Tracer) -> dict:
    distinct = tracer.distinct_inputs

    def note_input(args):
        if args:
            distinct.add(hash(tuple(args[0])))

    def note_leq(args, result):
        if result:
            tracer.count("orders.middle_leq.true")

    def note_poset(args, result):
        poset = args[0]
        tracer.count("posets.elements", poset.n)
        tracer.count("posets.covers", len(poset.covers))
        tracer.count("posets.comparable_pairs", sum(m.bit_count() for m in poset._above) - poset.n)

    def note_checks(args, result):
        tracer.count("verify.checks", len(result))
        tracer.count("verify.checks_failed", sum(1 for r in result if not r.ok))

    hooks = {
        "permutations.inversion_sequence": (note_input, None),
        "orders.middle_leq": (None, note_leq),
        "posets.FinitePoset.init": (None, note_poset),
    }
    for suite in SUITES:
        hooks[f"verify.{suite}"] = (None, note_checks)
    return hooks


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several traced processes (the CLI children)."""
    functions: dict = {}
    counters: dict = {}
    for s in summaries:
        for name, f in s["functions"].items():
            into = functions.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in into:
                into[key] += f[key]
        for key, value in s["counters"].items():
            if isinstance(value, list):
                counters.setdefault(key, []).extend(value)
            else:
                counters[key] = counters.get(key, 0) + value
    return {"functions": functions, "counters": counters}
