#!/usr/bin/env python3
"""Builds the served-path benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build (CMake, Release) lives in
$CARGO_TARGET_DIR or .bench_build and is reused by later runs. Build
output goes to stderr; stdout is the benchmark's report, whose last line
is the JSON result. The exit code is the benchmark's: 0 when the
correctness gate passed. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir, target):
    configured = any((build_dir / f).exists() for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    build_dir = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
                 / "perfbench")
    selftest = sys.argv[1:] == ["--selftest"]
    target = "perfbench_test" if selftest else "gred_perfbench"
    try:
        build(build_dir, target)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    cmd = [str(build_dir / target)]
    if not selftest:
        cmd += sys.argv[1:] + ["--trace-out", str(build_dir / "traces")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
