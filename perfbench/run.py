#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

    python3 perfbench/run.py --workload cold-query|warm-sweep|grid-job \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The benchmark and the library sources
under src/ are configured and built (Release) into $CARGO_TARGET_DIR, or
.bench_build when it is unset; later runs rebuild incrementally.  Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result.  Traced runs write their spans to <build dir>/traces.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, target):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def main(argv):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    target = "perfbench_selftest" if argv == ["--selftest"] else "perfbench"
    try:
        build(build_dir, target)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, target)
    if target == "perfbench_selftest":
        return subprocess.run([binary]).returncode
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    return subprocess.run([binary, *argv, "--trace-dir", trace_dir]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
