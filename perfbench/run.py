#!/usr/bin/env python3
"""Build the repository from source and run one benchmark workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The build goes through dune into the checkout's _build directory; its
output goes to stderr. The last line of stdout is the run's JSON result
(see perfbench/README.md). Exits non-zero, printing no result, when the
checkout cannot be built or the run fails.
"""

import os
import signal
import subprocess
import sys

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
NDP_RUN = os.path.join("_build", "default", "bin", "ndp_run.exe")
# A run must finish within 180 s of its start once the build is done.
RUN_TIMEOUT_S = 170


def main():
    needed = ["dune-project", "lib", "bin", os.path.join("perfbench", "dune"), "BENCHMARK.json"]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print("perfbench: not a source checkout (missing %s)" % ", ".join(missing), file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/ndp_run.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    cmd = [BENCH, "--spec", "BENCHMARK.json", "--ndp-run", NDP_RUN] + sys.argv[1:]
    # Own process group, so a timeout also stops the serve daemon.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
