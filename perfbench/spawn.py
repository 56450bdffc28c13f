"""Run one command and report its wall time and its own peak RSS.

    python3 -S perfbench/spawn.py REPORT_PATH PROGRAM ARG...

PROGRAM is an absolute path.  Stdin, stdout and stderr pass through to the
command, and the exit code is the command's.  REPORT_PATH receives one line,
"<wall seconds> <max RSS KiB>", as `perf_counter` and `wait4` give them.

A process's max RSS starts from its parent's RSS at the moment it is
spawned, so a `gog` child spawned by the benchmark driver would report the
driver's memory whenever the driver is the larger.  Started with `-S` and
importing only builtin modules, this process stays well below any `gog`
process, so the figure it reports is the command's own.
"""

import os
import sys
from time import perf_counter


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    started = perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - started
    with open(report, "w") as out:
        out.write(f"{wall!r} {usage.ru_maxrss}\n")
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main())
