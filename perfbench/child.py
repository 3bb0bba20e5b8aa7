"""Run one bkcdf CLI command in a fresh process: the benchmark's unit of work.

    python3 child.py SRC TIMING_FILE TRACE_FILE|- CLI_ARGS...

Imports ``bkcdf.cli`` from SRC (and nowhere else), then writes to
TIMING_FILE the monotonic clock reading taken once the CLI is ready, so
the parent can split process start-up from the command itself.  With a
TRACE_FILE, the module entry points are wrapped before the command runs
and the per-layer summary is written there afterwards.
"""

import json
import os
import sys
import time


def main() -> int:
    src, timing_path, trace_path, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    import bkcdf.cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    here = os.path.realpath(bkcdf.cli.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        print(f"bkcdf was imported from {here}, not from {src}", file=sys.stderr)
        return 3
    with open(timing_path, "w") as fh:
        json.dump({"ready": ready}, fh)

    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        rc = bkcdf.cli.main(argv)
    except SystemExit as exc:  # argparse errors exit with code 2
        rc = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    if tracer is not None:
        with open(trace_path, "w") as fh:
            json.dump(tracer.summary(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
