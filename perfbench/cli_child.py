"""Run one arithgroups CLI command and write its peak resident memory to a file.

Usage (with the package importable, e.g. PYTHONPATH=src):

    python perfbench/cli_child.py RSS-FILE CLI-ARGS...

Behaves like ``python -m arithgroups.cli CLI-ARGS...`` (same stdout, stderr and
exit code).  At exit it writes the process's VmHWM in KiB to RSS-FILE.  The
benchmark cannot use the child's ru_maxrss for this: the child is forked from
the benchmark process, and Linux counts that process's resident high-water mark
into the child's ru_maxrss, which would put a floor of the benchmark's own size
under every command's peak.
"""

import atexit
import runpy
import sys


def write_peak_rss(path):
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(kib)


atexit.register(write_peak_rss, sys.argv.pop(1))
runpy.run_module("arithgroups.cli", run_name="__main__", alter_sys=True)
