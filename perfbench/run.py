#!/usr/bin/env python3
"""Build and run the fleet benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures perfbench/CMakeLists.txt (which pulls in the repository's
layer libraries from source) into .bench_build/perfbench, builds the
fleetbench target, then runs it with the same arguments. Build output
goes to stderr, so the last stdout line is the benchmark's JSON result.
Exits non-zero without a result when the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

# fleetbench accepts --seconds up to 150, so a run ends well inside this.
RUN_TIMEOUT_S = 170


def build(root):
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "fleetbench",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "fleetbench")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
