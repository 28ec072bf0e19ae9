#!/usr/bin/env python3
"""Build the benchmark program from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig9-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The benchmark program (llbench) is configured and built as the CMake
project in this directory, in Release mode, under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Every
argument is passed to llbench, whose last line of output is the JSON
result. The exit status is llbench's, or 1 when the build fails.
"""

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def stale(build):
    """A cache configured from another source tree cannot be reused."""
    cache = build / "CMakeCache.txt"
    if not cache.exists():
        return False
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
            return Path(line.split("=", 1)[1]).resolve() != HERE
    return True


def run_logged(cmd, log):
    with open(log, "a") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build():
    build = build_dir()
    if stale(build):
        shutil.rmtree(build)
    build.mkdir(parents=True, exist_ok=True)
    log = build / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build), "--target", "llbench", "-j", jobs],
    ]
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            lines = log.read_text(errors="replace").splitlines()
            sys.stderr.write("\n".join(lines[-40:]) + "\n")
            sys.stderr.write(f"perfbench: build failed (full log: {log})\n")
            return None
    return build / "llbench"


def main():
    binary = build()
    if binary is None:
        return 1
    child = subprocess.Popen([str(binary)] + sys.argv[1:], cwd=ROOT)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
