"""Run one spinr command with the benchmark's tracer installed.

    python perfbench/cli_child.py SPANS_FILE ARG...

behaves like `python -m spinr.cli ARG...` (same output, same exit code,
same traceback on an uncaught error) and writes the tracer's totals to
SPANS_FILE, whatever the command's outcome.
"""

import sys

import spinr.cli
from tracer import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(keep=2000)
    tracer.install()
    try:
        with tracer.span("cli.main"):
            spinr.cli.main.main(args=argv, prog_name="spinr")
    finally:
        tracer.uninstall()
        tracer.write(spans_path)


if __name__ == "__main__":
    main()
