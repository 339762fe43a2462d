"""Run `ddns serve` with the benchmark's timing wrappers installed.

Usage: serve_launcher.py SPANS_PATH [ddns arguments...]

`ddns serve` returns on SIGTERM; the spans are written to SPANS_PATH after it
returns.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from ddns import cli
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
