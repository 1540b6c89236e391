"""Run one command; print its wall time, CPU time, peak RSS and exit as JSON.

    python3 perfbench/launch.py TIMEOUT_S LOG -- COMMAND [ARG ...]

The command's output goes to LOG. Its wall time runs from spawn to exit, and
CPU time and peak RSS come from `getrusage(RUSAGE_CHILDREN)`, which covers
exactly the one command this process waits for. The command is started from
this small, fresh process rather than from the benchmark itself because Linux
carries the spawning process's RSS high-water mark into the child, so the
benchmark's own memory would otherwise show up as the command's peak RSS.
A command still running after TIMEOUT_S seconds is killed.
"""

import json
import resource
import subprocess
import sys
import time


def main() -> int:
    timeout, log = float(sys.argv[1]), sys.argv[2]
    if sys.argv[3] != "--" or len(sys.argv) < 5:
        print(__doc__, file=sys.stderr)
        return 2
    timed_out = False
    with open(log, "wb") as out:
        start = time.perf_counter()
        try:
            code = subprocess.run(sys.argv[4:], stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            code, timed_out = -9, True
        wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "exit": code,
        "timed_out": timed_out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
