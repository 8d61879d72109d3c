#!/usr/bin/env python3
"""Build and run the Reticle benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the benchmark program (perfbench/,
linking the library sources under src/) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset; later runs only
rebuild what changed. The program's standard output is passed through; its
last line is the JSON result. Build failures exit non-zero without a
result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "reticle_perfbench"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        return subprocess.run(cmd, stdout=log,
                              stderr=subprocess.STDOUT).returncode


def report_failure(step, log_path):
    sys.stderr.write(f"perfbench: {step} failed; log follows ({log_path})\n")
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-40:]))


def build():
    """Returns the path of the built program, or None when the build fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources (src/) not found\n")
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", out,
                       "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
            report_failure("configure", log)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", out, "--target", TARGET, "-j", jobs],
                  log) != 0:
        report_failure("build", log)
        return None
    return os.path.join(out, TARGET)


def main():
    binary = build()
    if binary is None:
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
