#!/usr/bin/env python3
"""Build the drain benchmark from source, run it, and clean up after it.

Usage (from the repository root):

    python3 perfbench/run.py --workload filter_project --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The engine library and the benchmark are compiled with CMake + Ninja into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Build output
goes to stderr so that the last line of stdout stays the benchmark's JSON
result. The durable-log directory of the run lives under the build root and
is removed when the benchmark exits, whether it passed, failed or crashed.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path


def main() -> int:
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: engine sources missing under {root / 'src'}", file=sys.stderr)
        return 2

    build_root = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "perfbench"
    jobs = str(len(os.sched_getaffinity(0)))
    if not (build_dir / "build.ninja").is_file():
        configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir), "-G", "Ninja",
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            print("perfbench: cmake configure failed", file=sys.stderr)
            return 2
    build = ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs]
    if subprocess.run(build, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    log_dir = build_root / "perfbench-logs" / f"run-{os.getpid()}"
    shutil.rmtree(log_dir, ignore_errors=True)
    try:
        child = subprocess.run([str(build_dir / "perfbench"), *sys.argv[1:],
                                "--log-dir", str(log_dir)])
    finally:
        shutil.rmtree(log_dir, ignore_errors=True)
    return child.returncode if child.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
