#!/usr/bin/env python3
"""slimsim benchmark: time to an (eps, delta) answer on four paper workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds 25] [--trace 0|1]

Builds the slimsim library and the slimbench program (perfbench/slimbench)
from source in
.bench_build, generates the workload's inputs from the seed, answers the
workload's query repeatedly for --seconds through the public API
(compile_source, then run_analysis), checks every answer against its
reference, and prints each metric by name with its unit. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 makes a
separate traced run and reports the per-layer metrics, writing its spans to
.bench_build/results/. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEED = 1  # the held-out seed for confirming a claim is 20151 (README.md)

# The query of each workload. Everything below `model` is handed to the
# slimbench as generated input; slimbench never sees the workload name.
WORKLOADS = {
    "gps_scalar_t4": {
        "model": {"file": "models/gps.slim"},
        "goal": "gps.measurement",
        "bound_s": 1800.0,
        "mode": "estimate-parallel",
        "workers": 4,
        "delta": 0.05,
        "eps": 0.001,
    },
    "launcher_curve_t1": {
        "model": {"library": ["launcher-recoverable"]},
        "bound_s": 7200.0,
        "mode": "estimate",
        "curve_points": 16,
        # delta = 1e-4 instead of the paper's 0.05 keeps a correct estimator
        # from missing its reference by chance (README.md, "References").
        "delta": 1e-4,
        "eps": 0.005,
    },
    "failover_scalar_p4": {
        "model": {"file": "models/failover.slim"},
        "goal": "failed",
        "bound_s": 36000.0,
        "mode": "estimate",
        "processes": 4,
        "delta": 0.05,
        "eps": 0.002,
    },
    "table1_ctmc_r7": {
        "model": {"library": ["sensor-filter", "7"]},
        "bound_s": 360000.0,
        "mode": "ctmc",
    },
}

SETUP_PROCESSES = {"full": 25, "tiny": 3}
# Tiny runs (selftest.py) widen eps 8x: 1/64 of the paths.
EPS_SCALE = {"full": 1.0, "tiny": 8.0}
RUN_TIMEOUT_S = 170.0
BUILD_TIMEOUT_S = 850.0


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def child_env():
    """Environment of every child: temporary files stay in the build dir."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def execute(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group and waits for it; on timeout the
    whole group (slimbench and any worker processes) is killed."""
    with subprocess.Popen(cmd, start_new_session=True, env=child_env(), **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
        return proc.returncode, out, err


def build():
    """Configures (once) and builds slimbench; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "slimbench", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if execute(cmd, BUILD_TIMEOUT_S, stdout=log, stderr=subprocess.STDOUT)[0]:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "slimbench")


def call(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs slimbench; returns its stdout lines parsed as JSON."""
    code, out, err = execute([binary] + args, timeout, cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if code != 0:
        sys.stderr.write(err)
        fail(f"slimbench failed ({code}): {' '.join(args)}")
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def make_query(binary, workload, size):
    """Generates the workload's input files; returns the query file path."""
    spec = WORKLOADS[workload]
    inputs = os.path.join(build_dir(), "inputs")
    os.makedirs(inputs, exist_ok=True)
    query = {k: v for k, v in spec.items() if k != "model"}
    if "file" in spec["model"]:
        query["model"] = os.path.join(ROOT, spec["model"]["file"])
    else:
        args = spec["model"]["library"]
        path = os.path.join(inputs, hashlib.sha256(" ".join(args).encode()).hexdigest()[:16] + ".slim")
        code, out, err = execute([binary, "model"] + args + [path], 60, text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if code != 0:
            fail(f"model generation failed: {err.strip()}")
        query["model"] = path
        query["goal"] = out.strip()
    if "eps" in query:
        query["eps"] *= EPS_SCALE[size]
    text = json.dumps(query, sort_keys=True)
    path = os.path.join(inputs, "query-" + hashlib.sha256(text.encode()).hexdigest()[:16] + ".json")
    with open(path, "w") as f:
        f.write(text)
    return path, query


def load_references():
    with open(os.path.join(BENCH_DIR, "references.json")) as f:
        return json.load(f)["workloads"]


def misses(answer, reference):
    """Why `answer` is not a correct answer to `query`, or None."""
    if answer["status"] != "converged":
        return f"status {answer['status']}"
    if "exact" in reference:
        err = abs(answer["value"] - reference["exact"])
        return f"|p - exact| = {err:.3g} > {reference['tolerance']}" if err > reference["tolerance"] else None
    if "curve" in reference:
        if len(answer["curve"]) != len(reference["curve"]):
            return "curve has the wrong number of points"
        band = answer["half_width"]
        worst = max(abs(a - r) for a, r in zip(answer["curve"], reference["curve"]))
        return f"curve misses its reference by {worst:.4g} > band {band:.4g}" if worst > band else None
    # The achieved half-width is the answer's own eps (4x the query's for
    # the warm-up answer).
    eps = answer["half_width"]
    err = abs(answer["value"] - reference["value"])
    return f"|p - reference| = {err:.4g} > eps {eps:.4g}" if err > eps else None


def median(values):
    return statistics.median(values) if values else 0.0


def fingerprint(info, load_start):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "cpu_model": cpu,
        "build_type": info["build_type"],
        "compiler": info["compiler"],
        "optimized": info["optimized"],
        "ndebug": info["ndebug"],
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "host.calib_ns": info["calib_ns"],
    }


def end_to_end(reps, setups):
    timed = [r for r in reps if r["kind"] == "timed"]
    return {
        "time_to_answer_s": (median([r["time_s"] for r in timed]), "s", len(timed)),
        "setup_s": (median([s["setup_s"] for s in setups]), "s", len(setups)),
        "cpu_s": (median([r["cpu_s"] for r in timed]), "s", len(timed)),
        "peak_rss_mib": (median([r["peak_rss_mib"] for r in timed]), "MiB", len(timed)),
    }


def per_layer(reps, layers, query, info):
    """{name: (value, unit)}: the probes' metrics as slimbench reported them,
    and those computed here from the answers."""
    timed = [r for r in reps if r["kind"] == "timed"]
    traced = [r for r in reps if r["kind"] == "traced"]
    untraced_s = median([r["time_s"] for r in timed])
    m = {name: (v["value"], v["unit"]) for name, v in layers.items()}
    m["host.calib_ns"] = (info["calib_ns"], "ns")
    m["trace.overhead_ratio"] = (median([r["time_s"] for r in traced]) / untraced_s, "ratio")
    m["telemetry.share"] = (
        1.0 - median([r["time_s"] for r in reps if r["kind"] == "telemetry_off"]) / untraced_s, "ratio")
    m["sim.vol_ctx_switches"] = (median([r["vol_ctx_switches"] for r in traced]), "count")
    m["sim.sys_cpu_s"] = (median([r["sys_cpu_s"] for r in traced]), "s")
    m["supervise.children_cpu_s"] = (median([r["children_cpu_s"] for r in traced]), "s")
    m["supervise.restarts"] = (sum(r["restarts"] for r in traced), "count")
    for name in ("rounds", "discarded", "max_buffered"):
        m["stat.collector." + name] = (median([r["collector_" + name] for r in traced]), "count")
    if query["mode"] != "ctmc":
        accepted = median([r["samples"] for r in timed])
        executors = max(query.get("workers", 1), query.get("processes", 0), 1)
        path_s = layers["sim.path_ns"]["value"] * 1e-9
        m["paths_per_s"] = (median([r["samples"] / r["time_s"] for r in timed]), "1/s")
        m["sim.parallel_efficiency"] = (accepted * path_s / (executors * untraced_s), "ratio")
        m["sim.useful_ratio"] = (median(
            [r["samples"] / (r["samples"] + r["collector_discarded"]) for r in traced]), "ratio")
    return m


def absent_by_design(name, query):
    """Per-layer metrics a query does not measure: the CTMC stages on a
    simulation query, the estimator's throughput on the CTMC query."""
    if query["mode"] == "ctmc":
        return name in ("paths_per_s", "sim.parallel_efficiency", "sim.useful_ratio")
    return name.startswith("ctmc.")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SETUP_PROCESSES), default="full")
    parser.add_argument("--results", help="result directory (default .bench_build/results)")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no slimsim sources next to {os.path.basename(BENCH_DIR)}/ (expected ../src)", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    load_start = os.getloadavg()
    binary = build()
    info = call(binary, ["info"])[0]
    if not info["optimized"]:
        print("run.py: WARNING: slimbench was built without optimization", file=sys.stderr)
    query_path, query = make_query(binary, args.workload, args.size)
    reference = load_references()[args.workload]

    setups = [] if args.trace else [call(binary, ["setup", query_path])[0]
                                     for _ in range(SETUP_PROCESSES[args.size])]

    results = args.results or os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    run_args = ["run", query_path, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--trace-out", stem + ".trace.json"]
    lines = call(binary, run_args)
    reps = [l for l in lines if "time_s" in l]

    failures = [(r["seed"], why) for r in reps if (why := misses(r, reference))]
    for seed, why in failures:
        print(f"FAILED answer (seed {seed}): {why}")
    attempted = len(reps)

    if args.trace:
        layers = next(l for l in lines if l["kind"] == "layers")["metrics"]
        values = per_layer(reps, layers, query, info)
        names = [m["name"] for m in declared["per_layer"]]
        missing = [n for n in names if n not in values and not absent_by_design(n, query)]
        unexpected = sorted(set(values) - set(names))
        if missing or unexpected:
            fail("per-layer metrics not measured: " + ", ".join(missing) +
                 "; measured but not declared: " + ", ".join(unexpected))
        # A metric absent by design reads 0, in its declared unit.
        metrics = {m["name"]: values.get(m["name"], (0.0, m["unit"])) + (1,)
                   for m in declared["per_layer"]}
    else:
        metrics = end_to_end(reps, setups)
        timed = [r for r in reps if r["kind"] == "timed"]
        if query["mode"] != "ctmc":
            print(f"paths_per_s  {median([r['samples'] / r['time_s'] for r in timed]):.6g} 1/s")
    print(f"failed_fraction  {len(failures) / attempted:.6g} ratio (of {attempted} answers)")
    for name, (value, unit, n) in metrics.items():
        print(f"{name}  {value:.6g} {unit}" + (f"  (median of {n})" if n > 1 else ""))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "query": query,
        "host": fingerprint(info, load_start),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "answers": reps,
        "failures": failures,
        "setups": setups,
    }
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
    print(f"result file: {os.path.relpath(stem + '.json', ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
