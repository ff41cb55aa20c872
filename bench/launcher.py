"""Start the benchmark's commands from a process that holds nothing.

On Linux a child's ``ru_maxrss`` starts from the peak resident set of the
process that forked it. Started straight from the benchmark, which holds
whole corpora in memory, each command would report the benchmark's peak
rather than its own. This process stays small, so the peaks it reports are
the commands' own.

Protocol: one JSON request per line on standard input,
``{"argv": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}``,
answered by one JSON line on standard output,
``{"status": N, "wall_s": S, "peak_rss_mb": MB}``. The wall time runs from
spawning the child to reaping it; a child still running after ``timeout``
seconds is killed. The process exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
        killer = threading.Timer(request["timeout"], proc.kill)
        killer.start()
        try:
            # the rusage of this one child, unlike RUSAGE_CHILDREN
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"status": proc.returncode, "wall_s": wall_s, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
