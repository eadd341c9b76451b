"""Run one command, then write its wall time, peak memory and exit code.

    python3 -I -S benchmarks/launcher.py REPORT PROGRAM [ARGS...]

The benchmark starts every program through this small interpreter rather
than directly.  On Linux a child's peak resident size includes the memory
image it was forked from, so a child forked by the benchmark itself would
report at least the benchmark's own peak.  Forked from here, that floor is
this launcher's few megabytes.  REPORT receives one line: the clock
(time.monotonic, which is system-wide) just before the fork and just after
the child was reaped, the child's peak resident size in kilobytes, and its
exit code.
"""

import os
import sys
import time

report, program = sys.argv[1], sys.argv[2:]
started = time.monotonic()
pid = os.fork()
if pid == 0:
    try:
        os.execv(program[0], program)
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
ended = time.monotonic()
with open(report, "w", encoding="ascii") as handle:
    handle.write(
        f"{started!r} {ended!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}\n"
    )
