"""Run minishift's command line with the benchmark's span wrappers installed.

Usage: python perfbench/cli_launcher.py RECORD_PATH ARG...

Behaves like ``python -m minishift.cli ARG...`` and also writes the spans
and counters it recorded, as JSON, to RECORD_PATH.  The traced
``cli-session`` runs use it in place of the plain module.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402


def run() -> None:
    record, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import minishift.cli

    tracer.span("cli.import", t0, time.perf_counter())
    tracer.install()
    sys.argv = ["minishift", *argv]
    try:
        tracer.wrap(minishift.cli.main, "cli.main")()
    finally:
        tracer.uninstall()
        with open(record, "w") as fh:
            json.dump(tracer.to_record(), fh)


if __name__ == "__main__":
    run()
