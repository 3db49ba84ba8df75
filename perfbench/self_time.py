#!/usr/bin/env python3
"""Per-layer total and self time of a traced run.

    python3 perfbench/self_time.py .bench_build/results/WORKLOAD-seedN-trace1.trace.json

A span's self time is its duration minus the part of that interval its
child spans cover (children of one span may overlap, e.g. the collector's
four producer threads, so their union is subtracted). Prints one row per
span name: count, total seconds, self seconds.
"""
import json
import sys
from collections import defaultdict


def load(path):
    with open(path) as f:
        return json.load(f)


def covered(intervals):
    """Length of the union of [start, end] intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """{span id: self time in ns}."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    return {s["id"]: (s["end_ns"] - s["start_ns"]) - covered(children[s["id"]]) for s in spans}


def main(path):
    spans = load(path)["spans"]
    own = self_times(spans)
    rows = defaultdict(lambda: [0, 0, 0])
    for s in spans:
        row = rows[s["name"]]
        row[0] += 1
        row[1] += s["end_ns"] - s["start_ns"]
        row[2] += own[s["id"]]
    print(f"{'span':32} {'count':>8} {'total_s':>10} {'self_s':>10}")
    for name, (count, total, self_ns) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:32} {count:8d} {total * 1e-9:10.4f} {self_ns * 1e-9:10.4f}")


if __name__ == "__main__":
    main(sys.argv[1])
