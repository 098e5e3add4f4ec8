"""Run one `sidediameter` command as `python -m sidediameter` would, and report its peak RSS.

Usage: python child.py ARGS...   (with the package's `src` on PYTHONPATH)

The command's stdout is unchanged.  At exit one line `RSS_MARKER <kB>` goes
to stderr: VmHWM from /proc/self/status, the peak resident size of this
process's own address space.  The benchmark cannot take the peak from
ru_maxrss, because Linux carries the spawning process's high-water mark into
its child's ru_maxrss at exec, so that figure would be the benchmark's own
size whenever the benchmark is the larger process.
"""

import runpy
import sys

RSS_MARKER = "@@vmhwm_kb "


def peak_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    try:
        runpy.run_module("sidediameter", run_name="__main__", alter_sys=True)
    finally:
        sys.stdout.flush()
        print(RSS_MARKER + str(peak_kb()), file=sys.stderr)
