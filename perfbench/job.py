"""Run one ``ktq`` command in this process, as the benchmark's job.

    python3 perfbench/job.py REPORT TRACE -- <ktq arguments>

It imports the package from ``src/`` of the checkout, calls the real CLI
entry point ``ktq.cli.cli_main`` and exits with its code.  REPORT receives
one JSON object: the monotonic clock reading when the command handler was
reached (set-up ends there) and, with TRACE 1, the trace summary of the
command.  Output goes to stdout and stderr as from the ``ktq`` command.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    report_path, trace = argv[0], argv[1] == "1"
    if argv[2] != "--":
        raise SystemExit("usage: job.py REPORT TRACE -- <ktq arguments>")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ktq.cli

    report = {}

    def reached(handler):
        def timed(args, out):
            report["handler_at"] = time.monotonic()
            return handler(args, out)

        return timed

    for name, handler in list(ktq.cli._COMMANDS.items()):
        ktq.cli._COMMANDS[name] = reached(handler)

    cli_main = ktq.cli.cli_main
    tracer = None
    if trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
        cli_main = tracer.wrap("cli.main", cli_main)
    try:
        code = cli_main(argv[3:])
    finally:
        sys.stdout.flush()
        if tracer is not None:
            report["trace"] = tracer.summary()
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
