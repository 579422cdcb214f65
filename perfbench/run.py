#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

    python3 perfbench/run.py --workload detailed-sim --seed 1 --seconds 30 --trace 0

perfbench/ is a Go module of its own that imports the simulator module at
the checkout root. This script builds it into .bench_build/ at that root,
keeping the Go build cache there as well, then runs the binary from the
root with the same arguments. The binary prints the result; this script
adds nothing to standard output. A failed build or run exits non-zero.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
RUN_TIMEOUT_S = 175


def build():
    go = shutil.which("go")
    if go is None:
        sys.stderr.write("perfbench: no Go toolchain on PATH\n")
        return False
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "-mod=readonly",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    cmd = [go, "build", "-o", BINARY, "."]
    proc = subprocess.run(cmd, cwd=HERE, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0 and b"-buildvcs=false" in proc.stdout:
        # A version-control tree the toolchain cannot query only costs the
        # revision in the provenance header, which then reads "unknown".
        proc = subprocess.run(cmd[:2] + ["-buildvcs=false"] + cmd[2:], cwd=HERE, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return False
    return True


def main():
    # A terminated wrapper still stops and reaps the benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not build():
        return 1
    proc = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
