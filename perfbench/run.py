#!/usr/bin/env python3
"""Build and run the gpuperf benchmark from the root of a source checkout.

Usage:
  python3 perfbench/run.py --workload validation|serve-mix \
      --seed S --seconds T --trace 0|1

Builds perfbench/main.exe and bin/gpuperf.exe with dune (output to
stderr), then runs main.exe, whose last stdout line is the JSON
result. Exits non-zero without a result when the build fails, e.g. in a
directory that holds only the benchmark.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = "_build"
BENCH = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
GPUPERF = os.path.join(BUILD_DIR, "default", "bin", "gpuperf.exe")


def main():
    # SystemExit unwinds through the waits below, which stop their child.
    signal.signal(signal.SIGTERM,
                  lambda *_: sys.exit("perfbench: terminated"))
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune not found on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled", "--display=quiet",
         "./perfbench/main.exe", "./bin/gpuperf.exe"],
        stdout=sys.stderr, stderr=sys.stderr, stdin=subprocess.DEVNULL,
        timeout=850)
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {build.returncode})")
    # Its own process group, so that on a timeout or a SIGTERM the daemon
    # it may have started is stopped with it.
    bench = subprocess.Popen(
        [BENCH, *sys.argv[1:], "--gpuperf", GPUPERF],
        stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        code = bench.wait(timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: timed out")
    finally:
        if bench.poll() is None:
            os.killpg(bench.pid, signal.SIGKILL)
            bench.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
