"""Run one bcorlicz command in a fresh interpreter with spans recorded.

Usage: python3 perfbench/cli_child.py SPANS_JSON ARGV...

The traced cli run starts this in place of ``python -m bcorlicz``.
It writes ``{"t0": <ns at its first line>, "spans": [...]}`` to
SPANS_JSON and exits with the command's exit code.
"""

import time

T0 = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

import tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    with tr.span("startup", "import"):
        import bcorlicz.cli
    try:
        with tracer.installed(tr), tr.span("cli", "main"):
            code = bcorlicz.cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"t0": T0, "spans": tr.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
