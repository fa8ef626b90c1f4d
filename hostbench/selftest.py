#!/usr/bin/env python3
"""Self-test of the host-time benchmark, at tiny relation sizes.

    python3 hostbench/selftest.py

Run it from the repository root. For each workload it checks that:
  * an untraced run prints every end-to-end metric of BENCHMARK.json and a
    traced run every per-layer metric, all answers correct;
  * two traced runs with one seed repeat every exact count (sim.*,
    storage.*, txn.*, wal.*, exec.*) byte for byte;
  * a run with a deliberately wrong expected answer reports it as failed;
  * the traced join_100k run books only the planner's spans inside ops as
    opt self time, not the database reloads between ops.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# So short that each loop runs only its minimum: the untraced loop its
# exact-count window, the traced loop one deck. The traced join_100k loop
# therefore opens with a database reload, since the window is the reload period.
SECONDS = "0.01"
SPANS_DIR = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "hostbench" / "spans"
EXACT_PREFIXES = ("sim.", "storage.", "txn.", "wal.", "exec.")


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, str(ROOT / "hostbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing:\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-1])


def opt_time_in_spans(workload, seed):
    """(number of ops, opt spans inside ops, opt spans between ops), in
    seconds, over the traced timed phase of the spans file."""
    spans = json.loads((SPANS_DIR / f"{workload}-seed{seed}.json").read_text())["spans"]
    root = next(s["id"] for s in spans if s["name"] == "phase.timed")
    ops = inside = between = 0

    def under_op(span):
        while span["parent"] >= 0:
            if span["is_op"]:
                return True
            span = spans[span["parent"]]
        return False

    for span in spans[root + 1:]:
        if span["is_op"] and span["parent"] == root:
            ops += 1
        if span["name"].startswith("opt."):
            seconds = (span["end_us"] - span["start_us"]) * 1e-6
            if under_op(span):
                inside += seconds
            else:
                between += seconds
    return ops, inside, between


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        code, plain = run(workload, 7, 0)
        check(code == 0 and plain["correct"] and plain["failed"] == 0,
              f"{workload}: untraced run correct")
        check(sorted(plain["metrics"]) == sorted(end_to_end),
              f"{workload}: untraced run prints exactly the end-to-end metrics")

        runs = [run(workload, 7, 1) for _ in range(2)]
        for code, result in runs:
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  f"{workload}: traced run correct")
            check(sorted(result["metrics"]) == sorted(per_layer),
                  f"{workload}: traced run prints exactly the per-layer metrics")
        exact = [name for name in per_layer if name.startswith(EXACT_PREFIXES)]
        differ = [name for name in exact
                  if runs[0][1]["metrics"][name] != runs[1][1]["metrics"][name]]
        check(not differ, f"{workload}: {len(exact)} exact counts repeat with one seed"
              + (f" (differ: {', '.join(differ)})" if differ else ""))
        if workload == "join_100k":
            ops, inside, between = opt_time_in_spans(workload, 7)
            reported = runs[1][1]["metrics"]["trace.opt_self_ms_per_op"]["value"] * ops * 1e-3
            check(between > 0 and abs(reported - inside) <= 1e-3 * inside + 1e-6,
                  f"{workload}: opt self time {reported:.6f} s is the planner's "
                  f"{inside:.6f} s inside ops, without the {between:.6f} s of reloads")

        code, wrong = run(workload, 7, 0, "--wrong-answer-op", "0")
        check(code != 0 and not wrong["correct"] and wrong["failed"] >= 1,
              f"{workload}: a wrong expected answer is counted as failed")

    print("self-test " + ("passed" if not failures else f"FAILED ({len(failures)} checks)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
