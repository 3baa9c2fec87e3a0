"""Run one command and report its wall time, resource usage and CPU speed.

Usage: ``python -S bench/launch.py {one|all} PROGRAM [ARG ...]``

The command inherits standard output and standard error.  After it exits,
one line ``<MARKER> <wall s> <cpu s> <maxrss KiB> <wait status> <cal s>``
is appended to standard error.  CPU and peak RSS come from ``os.wait4`` and
cover the command and every child it reaped.

``cal`` is how long a fixed piece of calibration work takes on the CPUs
the command ran on, averaged over runs just before and just after the
command.  The shared host this benchmark was built on slows a virtual CPU
by up to 1.7x for seconds to minutes at a time, so the benchmark scales
each time by the CPU's speed at that moment.  With ``one`` the command is
pinned to whichever CPU did the work fastest; with ``all`` it may use
every CPU, for commands that start worker processes.

The benchmark measures through this small process because, on Linux, a
spawned process's ``ru_maxrss`` starts at the resident size of the
process that spawned it, and the benchmark's own interpreter is larger
than the program it measures.  With ``-S`` this one stays near 8 MiB.
"""

import os
import sys
import time

MARKER = "planechow-launch:"
CAL_ENTRIES = 20_000


def calibrate(cpus) -> dict:
    """Seconds the fixed calibration work takes on each CPU, best of two.

    The work fills a dict with a few MiB of small objects, as the program's
    imports and polynomial arithmetic do; a pure arithmetic loop tracked
    the host's slowdowns of the program less well.
    """
    out = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times = []
        for _ in range(2):
            start = time.perf_counter()
            table = {}
            for i in range(CAL_ENTRIES):
                table[(i, i >> 3, i & 7)] = str(i)
            sum(map(len, table.values()))
            times.append(time.perf_counter() - start)
        out[cpu] = min(times)
    return out


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    before = calibrate(sorted(os.sched_getaffinity(0)))
    cpus = set(before) if mode == "all" else {min(before, key=before.get)}
    os.sched_setaffinity(0, cpus)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    after = calibrate(sorted(cpus))
    cal = sum(before[c] + after[c] for c in cpus) / (2 * len(cpus))
    cpu = usage.ru_utime + usage.ru_stime
    sys.stderr.write(
        f"\n{MARKER} {wall!r} {cpu!r} {usage.ru_maxrss} {status} {cal!r}\n"
    )
    sys.stderr.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
