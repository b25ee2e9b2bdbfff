"""Run one command and write its exit code, wall time, CPU time and peak RSS.

Usage (``-I -S`` keep this process small)::

    python3 -I -S perfbench/spawn.py USAGE.json PROGRAM [ARG ...]

Linux carries the peak RSS of the address space a child is spawned from into
the child's ``ru_maxrss``: a stage started straight from ``run.py``, which
holds NumPy and the checked outputs, would read at least ``run.py``'s own
peak.  Started from this small process instead, the stage reports its own.

SIGTERM kills the command and reaps it before this process exits, so no
process outlives it.  The exit code of this process is the command's.
"""

import json
import os
import signal
import sys
import time


def main():
    usage_path, argv = sys.argv[1], sys.argv[2:]
    pid, stopped = 0, False

    def stop(signum, frame):
        nonlocal stopped
        stopped = True
        if pid:
            os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGTERM, stop)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    if stopped:   # SIGTERM came before pid was set
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)   # retried after the handler runs (PEP 475)
    wall = time.perf_counter() - start
    rc = os.waitstatus_to_exitcode(status)
    with open(usage_path, "w") as fh:
        json.dump({"rc": rc, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                   "maxrss_mb": usage.ru_maxrss / 1024.0}, fh)
    return rc if rc >= 0 else 128 - rc


if __name__ == "__main__":
    sys.exit(main())
