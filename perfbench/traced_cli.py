"""`python -m middleorder.cli` with the tracer installed.

    python3 perfbench/traced_cli.py <cli arguments>

Times its own `import middleorder.cli`, wraps the library's functions,
runs the command, and writes the trace summary and spans to stderr as
one line starting with tracer.TRACE_MARK.
"""
import sys
import time

import tracer as tracing

start = time.perf_counter()
import middleorder.cli  # noqa: E402

import_s = time.perf_counter() - start


def main() -> None:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.counters["cli.import_s"] = [import_s]
    try:
        middleorder.cli.main(args=sys.argv[1:], prog_name="middleorder")
    finally:
        import json

        payload = {"summary": tracer.summary(), "records": tracer.records()}
        sys.stderr.write(tracing.TRACE_MARK + json.dumps(payload) + "\n")


if __name__ == "__main__":
    main()
