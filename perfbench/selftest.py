#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size run of every workload.

    python3 perfbench/selftest.py

For each workload, runs run.py at tiny size (eps x8, 1 s) with --trace 0 and
--trace 1, and checks that:
  * the last output line has exactly correct/attempted/failed/metrics,
    every answer was correct, and failed_fraction is 0;
  * every metric BENCHMARK.json names for that mode is printed, with the
    unit BENCHMARK.json declares, as a finite number (end-to-end metrics
    also non-zero). Per-layer units are the ones the probes report, and
    run.py exits non-zero when a probe misses a declared metric that the
    workload's query runs;
  * the trace file parses, every span carries the run id, is closed, and
    lies inside its parent span, and no self time is negative.
Exits 1 on the first failed check.
"""
import json
import math
import os
import subprocess
import sys

import run
import self_time


def check(condition, message):
    if not condition:
        print(f"selftest: FAILED: {message}")
        sys.exit(1)


def check_trace(path):
    doc = self_time.load(path)
    spans = {s["id"]: s for s in doc["spans"]}
    check(spans, f"{path}: no spans")
    for s in spans.values():
        where = f"{path}: span {s['id']} ({s['name']})"
        check(s["run_id"] == doc["run_id"], f"{where} has run id {s['run_id']}")
        check(0 <= s["start_ns"] <= s["end_ns"], f"{where} is open or reversed")
        if s["parent"] != 0:
            parent = spans.get(s["parent"])
            check(parent is not None, f"{where} has no parent {s['parent']}")
            check(parent["start_ns"] <= s["start_ns"] and s["end_ns"] <= parent["end_ns"],
                  f"{where} is not inside its parent")
    check(min(self_time.self_times(doc["spans"]).values()) >= 0, f"{path}: negative self time")
    return len(spans)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    results = os.path.join(run.build_dir(), "selftest")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload,
                   "--seed", str(run.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
                   "--size", "tiny", "--results", results]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            what = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{what} exited {proc.returncode}: {proc.stderr[-2000:]}")
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(out) == ["attempted", "correct", "failed", "metrics"], f"{what}: keys {sorted(out)}")
            check(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                  f"{what}: {out['failed']} of {out['attempted']} answers failed")
            check("failed_fraction  0 ratio" in proc.stdout, f"{what}: failed_fraction is not 0")
            wanted = declared["per_layer" if trace else "end_to_end"]
            check(sorted(out["metrics"]) == sorted(m["name"] for m in wanted), f"{what}: metric names")
            for m in wanted:
                got = out["metrics"][m["name"]]
                check(got["unit"] == m["unit"], f"{what}: {m['name']} unit {got['unit']}")
                check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
                      f"{what}: {m['name']} = {got['value']}")
                check(trace or got["value"] > 0, f"{what}: {m['name']} is 0")
                check(f"\n{m['name']}  " in proc.stdout, f"{what}: {m['name']} not printed by name")
            note = ""
            if trace:
                spans = check_trace(os.path.join(results, f"{workload}-seed{run.DEFAULT_SEED}-trace1.trace.json"))
                note = f", {spans} spans"
            print(f"selftest: ok  {what}: {out['attempted']} answers{note}")
    print("selftest: all workloads passed")


if __name__ == "__main__":
    main()
