"""Run one ``charid`` command with its layers traced, for the traced run of
cli-files.

    python3 bench/child.py OUT MEM ARGS...

ARGS are the command's own arguments (``analyze --input ...``).  With MEM 0
the spans of the command go to OUT as JSON.  With MEM 1 nothing is timed:
OUT gets the peak bytes tracemalloc sees inside ``parse_input`` and the size
of the input file.  The exit code is the command's.
"""

import json
import os
import sys
import tracemalloc

from spans import CLI_TARGETS, LIBRARY_TARGETS, Tracer


def _measure_parse(out: str) -> None:
    import charid.cli

    parse = charid.cli.parse_input

    def measured(path, *args, **kwargs):
        tracemalloc.start()
        try:
            return parse(path, *args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            with open(out, "w", encoding="utf-8") as fh:
                json.dump({"peak": peak, "bytes": os.path.getsize(path)}, fh)

    charid.cli.parse_input = measured


def main() -> int:
    out, mem, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    if mem:
        _measure_parse(out)
        import charid.cli

        return charid.cli.main(argv)
    tracer = Tracer()
    tracer.patch(LIBRARY_TARGETS + CLI_TARGETS)
    import charid.cli

    try:
        return charid.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
