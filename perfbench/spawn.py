"""Small launcher that starts the benchmark's child processes.

Linux keeps a process's peak resident memory across exec, so a child
forked straight from the benchmark, which holds numpy and the expected
outputs, would report at least the benchmark's own peak as its
``ru_maxrss``.  This process imports only the standard library and holds
no output, so the peak it passes on is far below any CLI child's own.

Protocol: one JSON request per line on stdin,
``{"cmd": [...], "stdout": PATH, "stderr": PATH}``; the child runs with
this process's cwd and environment, its stdout and stderr going to the two
files.  One JSON line answers each request:
``{"returncode": int, "start": float, "end": float, "maxrss_kb": int}``,
with times from ``time.perf_counter`` taken just before the spawn and just
after the child is reaped.  The launcher exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["cmd"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"returncode": proc.returncode, "start": start, "end": end,
                 "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
