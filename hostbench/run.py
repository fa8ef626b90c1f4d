#!/usr/bin/env python3
"""Builds and runs the host-time benchmark.

    python3 hostbench/run.py --workload select_1m --seed 1 --seconds 10 --trace 0

Run it from the repository root. It configures and builds hostbench/ (which
compiles the machine libraries from src/) into $CARGO_TARGET_DIR/hostbench,
default .bench_build/hostbench, then runs the benchmark binary. Its last
line of standard output is the JSON result. Extra arguments (--tiny,
--wrong-answer-op K) pass through to the binary. A traced run
writes its spans to <build dir>/spans/<workload>-seed<seed>.json.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "hostbench"


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "hostbench"


def build() -> Path:
    """Configures (once) and builds the binary; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("hostbench: no machine sources at src/ next to hostbench/; "
                 "run from a full checkout of the repository")
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "hostbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "hostbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["select_1m", "join_100k", "update_100k"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    if args.trace:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
