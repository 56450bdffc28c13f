"""Run one `gog` command with the layer wrappers installed, for traced runs.

    python3 perfbench/launcher.py STATS_PATH GOG_ARG...

Imports `goglattice.cli`, installs the wrappers from `tracer.py`, calls
`goglattice.cli.main(argv)` and writes the trace records, with the import and
`main` wall times, to STATS_PATH as JSON.  Stdout is the command's own.
"""

import json
import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    started = perf_counter()
    import goglattice.cli as cli

    import_s = perf_counter() - started
    tracer = Tracer()
    tracer.install()
    started = perf_counter()
    status = cli.main(argv)
    main_s = perf_counter() - started
    sys.stdout.flush()
    tracer.count("cli.import_s", import_s)
    tracer.count("cli.main_s", main_s)
    with open(stats_path, "w") as out:
        json.dump(tracer.records(), out)
    return status


if __name__ == "__main__":
    sys.exit(main())
