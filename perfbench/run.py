#!/usr/bin/env python3
"""Run one workload of the serving benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds ipso_serve, ipso_router and the
benchmark program from the checkout into .bench_build/ (the first run
configures and compiles; later runs only check that the build is current),
then hands over to that program, which starts the daemons, drives the
workload and prints one JSON result line as the last line of stdout.
Workloads: cold-fit, hot-mix, observe-compare, routed-mix (see README.md).
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TARGETS = ["ipso_serve", "ipso_router", "perfbench"]


def build():
    """Configures (once) and builds the daemons and the benchmark; the build
    log goes to stderr so stdout carries only the result line."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target"] + TARGETS)
    for cmd in steps:
        # Own process group, so an interrupted build stops its compilers too.
        proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                start_new_session=True)

        def stop(signum, _frame):
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            sys.exit(128 + signum)

        signal.signal(signal.SIGTERM, stop)
        signal.signal(signal.SIGINT, stop)
        if proc.wait() != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)


def main():
    os.chdir(ROOT)
    build()
    program = os.path.join(BUILD, "bin", "perfbench")
    # exec: the benchmark program becomes this process, so a signal sent
    # to the benchmark reaches the code that stops the daemons.
    os.execv(program, [program] + sys.argv[1:] +
             ["--tools", os.path.join(BUILD, "tools")])


if __name__ == "__main__":
    main()
