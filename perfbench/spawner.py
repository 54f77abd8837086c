"""Starts the benchmark's child processes on request, one at a time.

Linux counts in a child's peak RSS (``ru_maxrss``) the resident size of the
process it was forked from, so children forked straight from the benchmark,
which holds the generated corpora, would report the benchmark's memory. This
launcher is started before the benchmark grows and stays small.

Protocol: one JSON request per stdin line, with argv, stdin, stdout and
stderr paths, env, cwd and timeout; one JSON reply per stdout line, with
exit_code, wall_s, maxrss_kb and timed_out. It exits at end of input.
"""

import json
import os
import select
import subprocess
import sys
import time


def run(request: dict) -> dict:
    with open(request["stdin"], "rb") as fin, open(request["stdout"], "wb") as fout, \
            open(request["stderr"], "wb") as ferr:
        start = time.perf_counter()
        child = subprocess.Popen(request["argv"], stdin=fin, stdout=fout, stderr=ferr,
                                 env=request["env"], cwd=request["cwd"])
        pidfd = os.pidfd_open(child.pid)
        try:
            ended, _, _ = select.select([pidfd], [], [], request["timeout"])
        finally:
            os.close(pidfd)
        if not ended:
            child.kill()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"exit_code": child.returncode, "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss, "timed_out": not ended}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
