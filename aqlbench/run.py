#!/usr/bin/env python3
"""Builds the AQL end-to-end benchmark from source and runs one workload.

Usage (from the repository root):

    python3 aqlbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR when it is set (relative paths are
taken from the repository root), else to .bench_build. Build output goes
to stderr; the benchmark's stdout passes through unchanged, so its last
line is the JSON result. Spans of a traced run are written to
<build dir>/traces/<workload>.spans.tsv.

Extra flag: --smoke runs a tiny input and prints the digests the
self-check (aqlbench/test_aqlbench.py) compares.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig5c_analytical", "fig5c_bootstrap", "grouped_mtest", "late_governed"]


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def cached_source_dir(cache):
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build(out):
    """Configures (once) and builds the aqlbench target; returns the binary."""
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache) and cached_source_dir(cache) != HERE:
        shutil.rmtree(out)  # a build dir configured for another checkout
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "aqlbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "aqlbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("aqlbench: no ausdb sources next to the benchmark", file=sys.stderr)
        return 2
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"aqlbench: build failed: {e}", file=sys.stderr)
        return 2
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", traces]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
