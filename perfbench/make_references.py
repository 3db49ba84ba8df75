#!/usr/bin/env python3
"""Regenerates perfbench/references.json.

    python3 perfbench/make_references.py [WORKLOAD ...]

With workload names, only those references are made again; the others are
kept as they are in the file.

Each simulation workload's reference is the mean of three answers to the
workload's own query at a quarter of its eps (16x the paths), on seeds that
the benchmark's repetitions do not use. The CTMC workload's reference is the
exact Table I value. The file records how each reference was made.
"""
import json
import os
import statistics
import sys
import time

import run

REFERENCE_SEED = 7_000_003
EPS_DIVISOR = 4.0


def main():
    chosen = sys.argv[1:] or list(run.WORKLOADS)
    unknown = sorted(set(chosen) - set(run.WORKLOADS))
    if unknown:
        sys.exit(f"make_references.py: unknown workload(s) {', '.join(unknown)}")
    binary = run.build()
    out = run.load_references() if sys.argv[1:] else {}
    for workload, spec in run.WORKLOADS.items():
        if workload not in chosen:
            continue
        if spec["mode"] == "ctmc":
            out[workload] = {
                "exact": 0.0417285,
                "tolerance": 5e-8,
                "made_with": "exact CTMC flow value of Table I at R = 7 (EXPERIMENTS.md), "
                             "to 7 digits; tolerance is half a unit of the last digit",
            }
            continue
        query_path, query = run.make_query(binary, workload, "full")
        tight = dict(query, eps=query["eps"] / EPS_DIVISOR)
        tight_path = query_path.replace(".json", "-reference.json")
        with open(tight_path, "w") as f:
            json.dump(tight, f, sort_keys=True)
        started = time.time()
        lines = run.call(binary, ["run", tight_path, "--seed", str(REFERENCE_SEED), "--seconds", "0",
                                  "--trace", "0"], timeout=3600)
        answers = [l for l in lines if l.get("kind") == "timed"]
        entry = {
            "made_with": {
                "query": {k: v for k, v in tight.items() if k != "model"},
                "seed": REFERENCE_SEED,
                "answers": len(answers),
                "paths_per_answer": answers[0]["samples"],
                "wall_s": round(time.time() - started, 1),
                "note": f"mean of {len(answers)} answers at eps / {EPS_DIVISOR:g}",
            }
        }
        if "curve" in answers[0]:
            entry["curve"] = [statistics.fmean(a["curve"][i] for a in answers)
                              for i in range(len(answers[0]["curve"]))]
        else:
            entry["value"] = statistics.fmean(a["value"] for a in answers)
        out[workload] = entry
        print(workload, json.dumps(entry), file=sys.stderr)
    with open(os.path.join(run.BENCH_DIR, "references.json"), "w") as f:
        json.dump({"workloads": out}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
