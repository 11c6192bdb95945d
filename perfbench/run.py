#!/usr/bin/env python3
"""Builds the DPC benchmark from source and runs one workload.

    python3 perfbench/run.py --workload kvfs-direct-8k --seed 1 \
        --seconds 10 --trace 0

Run from the root of the repository. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Build output
goes to stderr; the last stdout line is the JSON result. Any
further arguments (--ops, --setups, --inject, --check-determinism) are
passed to dpc_perfbench unchanged. Exits non-zero, without a
result, when the build fails or the run does not verify.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build() -> Path:
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "dpc_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "dpc_perfbench"


def main(argv) -> int:
    try:
        exe = build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    return subprocess.run([str(exe)] + list(argv)).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
