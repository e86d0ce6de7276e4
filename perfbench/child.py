"""Run mubforge CLI commands in this fresh interpreter and report on them.

    python3 perfbench/child.py REPORT [--trace SPANS] -- ARGS...
    python3 perfbench/child.py REPORT --batch COMMANDS.json

The first form runs one command, as the ``mubforge`` entry point would, and
exits with its exit code. An uncaught exception ends the process with a
traceback, as it would for a user. The second form runs a list of argument
lists in one interpreter; the benchmark builds its corpus this way.

REPORT receives the time to import ``mubforge.cli`` (measured here,
in the child), the peak resident set size and, with ``--trace``, the
per-name span aggregate. The raw spans go to SPANS, one JSON array
``[id, name, start, end, parent, counts]`` a line, written after the
command has finished.
"""

import os
import resource
import sys
import time


def main() -> int:
    report_path = sys.argv[1]
    rest = sys.argv[2:]
    spans_path = None
    batch_path = None
    if rest and rest[0] == "--trace":
        spans_path, rest = rest[1], rest[2:]
    if rest and rest[0] == "--batch":
        batch_path, rest = rest[1], []
    elif rest and rest[0] == "--":
        rest = rest[1:]

    start = time.perf_counter()
    import mubforge.cli as cli

    report = {"import_s": time.perf_counter() - start, "rc": None}
    import json  # after the timed import, which loads it anyway

    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if batch_path:
            with open(batch_path, encoding="utf-8") as fh:
                commands = json.load(fh)
            report["rc"] = max(cli.main(argv) or 0 for argv in commands)
        else:
            report["rc"] = cli.main(rest)
    finally:
        report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            report["trace"] = tracer.aggregate()
            with open(spans_path, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
        tmp = report_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        os.replace(tmp, report_path)
    return report["rc"]


if __name__ == "__main__":
    sys.exit(main())
