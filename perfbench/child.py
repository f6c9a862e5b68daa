"""One benchmarked gaslab process.

    python3 perfbench/child.py RECORD TRACE -- <gaslab arguments>

Imports gaslab from the repository's `src`, installs the tracer (spans on
every layer when TRACE is 1, the first-solve stamp only when it is 0), runs
`gaslab.cli.main` on the arguments and writes the record as JSON to RECORD
before exiting with main's exit code.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gaslab.cli  # noqa: E402  (import time is part of set-up)

from tracer import Tracer  # noqa: E402


def main(argv):
    record_path, trace, sep, *gaslab_argv = argv
    if sep != "--":
        raise SystemExit("usage: child.py RECORD TRACE -- <gaslab arguments>")
    tracer = Tracer(full=trace == "1")
    tracer.install()
    code = gaslab.cli.main(gaslab_argv)
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.record(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
