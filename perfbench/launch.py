"""Run one command from a small process and report its wall time and own peak RSS.

Usage: python3 perfbench/launch.py STDOUT_FILE STDERR_FILE -- ARGV...

Prints one JSON line: ``wall_s``, ``exit_code``, ``peak_rss_kib`` (the
command's ru_maxrss from wait4) and ``launcher_hwm_kib`` (this process's
own high-water RSS).

On Linux a child's ru_maxrss also counts the high-water RSS of the address
space it exec'ed from, which is its parent's.  A command started straight
from the benchmark would report the benchmark's RSS (numpy, scipy, rfilab,
cost matrices) whenever that is larger than the command's own.  This
launcher imports only the standard library, so the address space the
command starts from is small, and ``launcher_hwm_kib`` bounds what it can
add: a reported peak above it is the command's own.
"""

import json
import os
import subprocess
import sys
import time


def high_water_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("VmHWM not in /proc/self/status")


def main(argv) -> int:
    out_path, err_path, sep, *command = argv
    if sep != "--" or not command:
        raise SystemExit(__doc__.split("\n\n")[1])
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "exit_code": proc.returncode, "peak_rss_kib": usage.ru_maxrss,
                      "launcher_hwm_kib": high_water_kib()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
