#!/usr/bin/env python3
"""Build the Figure 2 sweep benchmark and run one workload.

usage (from the repository root):
  python3 perfbench/run.py --workload tpch_sweep|htap_sweep|oltp_sweep
      [--seed N] [--seconds S] [--trace 0|1] [--reference FILE]

Configures and builds perfbench/ with CMake (RelWithDebInfo, the
repository's default) into .bench_build/, then runs perfbench_sweep.
Build output goes to stderr; the last stdout line is the JSON result.
Reports and span traces are written to .bench_build/out/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "build")
OUT_DIR = os.path.join(BUILD_ROOT, "out")
BINARY = os.path.join(BUILD_DIR, "perfbench_sweep")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "perfbench_sweep"],
                   stdout=sys.stderr, check=True)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_sha():
    """SHA-256 over the simulator and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference",
                    default=os.path.join(HERE, "reference.json"))
    a = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--reference", a.reference, "--out-dir", OUT_DIR,
           "--git-sha", git_sha(), "--source-sha", source_sha()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
