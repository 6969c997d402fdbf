"""Traced stand-in for ``python -m setcalc`` used by the cli workload.

Usage: ``python cli_runner.py SPANS_FILE SUBCOMMAND [ARGS...]``.  It installs
the benchmark's span wrappers, runs ``setcalc.cli.main`` on the remaining
arguments, writes the spans to SPANS_FILE and exits with main's exit code.
"""

import sys

import setcalc.cli
import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = setcalc.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
