// slimbench: the benchmark program behind perfbench/run.py.
//
//   slimbench model launcher-recoverable OUT.slim   write a library model, print its goal
//   slimbench model sensor-filter R OUT.slim
//   slimbench info                                  build fingerprint + calibration loop
//   slimbench setup QUERY.json                      one cold compile_source, in this process
//   slimbench run QUERY.json --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// `run` answers the query through the public API (compile_source, then
// run_analysis per repetition) and prints one JSON line per repetition and a
// final line with the per-layer metrics of a traced run. The query holds
// only generated inputs: a model file and the analysis parameters.
// Supervised queries re-exec this binary as `--worker-mode FD`.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "layers.hpp"
#include "models/launcher.hpp"
#include "models/sensor_filter.hpp"
#include "sim/supervise/supervise.hpp"

namespace {

using namespace slimsim;
using slimbench::Metrics;
using slimbench::Query;
using slimbench::Trace;
using Clock = std::chrono::steady_clock;

volatile double g_sink = 0.0;

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

Query load_query(const std::string& path) {
    const json::Value doc = json::Value::parse(read_file(path));
    Query q;
    q.model_path = doc.at("model").as_string();
    q.model_source = read_file(q.model_path);
    q.goal = doc.at("goal").as_string();
    q.bound = doc.at("bound_s").as_double();
    q.mode = doc.at("mode").as_string();
    if (q.mode != "ctmc") {
        q.delta = doc.at("delta").as_double();
        q.eps = doc.at("eps").as_double();
    }
    if (const auto* v = doc.find("workers")) q.workers = v->as_uint();
    if (const auto* v = doc.find("processes")) q.processes = v->as_uint();
    if (const auto* v = doc.find("curve_points")) q.curve_points = v->as_uint();
    return q;
}

/// User + system CPU seconds of this process (all threads) and of its
/// waited-for children.
struct Usage {
    double self_cpu = 0.0, self_sys = 0.0, children_cpu = 0.0;
    long vol_ctx_switches = 0;

    static Usage now() {
        rusage self{}, children{};
        getrusage(RUSAGE_SELF, &self);
        getrusage(RUSAGE_CHILDREN, &children);
        auto tv = [](const timeval& t) { return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec); };
        return {tv(self.ru_utime) + tv(self.ru_stime), tv(self.ru_stime),
                tv(children.ru_utime) + tv(children.ru_stime), self.ru_nvcsw};
    }
};

/// Restarts the peak-resident-set count (Linux >= 4.0). Where that is not
/// allowed, peak_rss_kib() keeps reporting the peak since exec.
void reset_peak_rss() {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
}

/// Peak resident set of this process image since exec or the last
/// reset_peak_rss(). getrusage's ru_maxrss is not used: across exec it keeps
/// the high-water mark of the forking parent.
double peak_rss_kib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Seed of repetition `rep`: a fresh stream per repetition, fixed by `seed`.
std::uint64_t rep_seed(std::uint64_t seed, std::uint64_t rep) {
    Rng child = Rng(seed).split(rep);
    return child();
}

/// Runs the query once and prints its line: the answer, its wall and CPU
/// time, and the run report's plumbing counts. A traced answer runs inside a
/// span of `trace` and with the library's own execution tracer recording
/// (AnalysisRequest::tracer, what the CLI's --trace turns on), except on a
/// supervised query, which the library does not trace; the library's spans
/// are not kept.
void answer(const Query& q, const eda::Network& net, std::uint64_t seed,
            const char* kind, bool telemetry, Trace* trace) {
    AnalysisRequest req = slimbench::make_request(q, net, seed);
    req.telemetry = telemetry;
    std::optional<tracer::Tracer> library_tracer;
    if (trace != nullptr && q.processes == 0) req.tracer = &library_tracer.emplace();
    reset_peak_rss();
    const Usage u0 = Usage::now();
    if (trace != nullptr) trace->main().begin(trace->main().intern("run_analysis"));
    const auto t0 = Clock::now();
    const AnalysisResult res = run_analysis(net, req);
    const auto t1 = Clock::now();
    if (trace != nullptr) trace->main().end();
    const Usage u1 = Usage::now();

    json::Value line = json::Value::object();
    line["kind"] = kind;
    line["seed"] = seed;
    line["time_s"] = seconds(t1 - t0);
    line["cpu_s"] = (u1.self_cpu - u0.self_cpu) + (u1.children_cpu - u0.children_cpu);
    line["sys_cpu_s"] = u1.self_sys - u0.self_sys;
    line["children_cpu_s"] = u1.children_cpu - u0.children_cpu;
    line["vol_ctx_switches"] = static_cast<long long>(u1.vol_ctx_switches - u0.vol_ctx_switches);
    line["peak_rss_mib"] = peak_rss_kib() / 1024.0;
    line["value"] = res.value;
    if (req.mode == AnalysisMode::CtmcFlow) {
        line["status"] = "converged";
        line["samples"] = 0u;
    } else if (!req.curve_bounds.empty()) {
        line["status"] = sim::to_string(res.curve.status);
        line["samples"] = static_cast<std::uint64_t>(res.curve.samples);
        line["half_width"] = res.curve.achieved_half_width;
        json::Value curve = json::Value::array();
        for (const auto& p : res.curve.points) curve.push_back(p.estimate);
        line["curve"] = std::move(curve);
    } else {
        line["status"] = sim::to_string(res.estimation.status);
        line["samples"] = static_cast<std::uint64_t>(res.estimation.samples);
        line["half_width"] = res.estimation.achieved_half_width;
    }
    const auto& c = res.report.collector;
    line["collector_rounds"] = c.rounds;
    line["collector_discarded"] = c.discarded;
    line["collector_max_buffered"] = c.max_buffered;
    line["restarts"] = res.report.supervision.restarts;
    std::printf("%s\n", line.dump().c_str());
    std::fflush(stdout);
}

int cmd_model(int argc, char** argv) {
    if (argc < 4) throw std::runtime_error("usage: slimbench model NAME [ARG] OUT");
    const std::string name = argv[2];
    std::string source, goal;
    if (name == "launcher-recoverable") {
        models::LauncherOptions opt;
        opt.recoverable_dpu = true;
        source = models::launcher_source(opt);
        goal = models::launcher_goal();
    } else if (name == "sensor-filter" && argc >= 5) {
        source = models::sensor_filter_source(std::atoi(argv[3]));
        goal = models::sensor_filter_goal();
    } else {
        throw std::runtime_error("unknown model " + name);
    }
    std::ofstream out(argv[argc - 1], std::ios::binary);
    out << source;
    if (!out.flush()) throw std::runtime_error(std::string("cannot write ") + argv[argc - 1]);
    std::printf("%s\n", goal.c_str());
    return 0;
}

/// A fixed integer/floating-point dependency chain: its ns per iteration
/// tells a slow host from a slow commit.
double calibration_ns() {
    constexpr std::uint64_t kIters = 1 << 24;
    std::vector<double> per_iter;
    for (int rep = 0; rep < 5; ++rep) {
        std::uint64_t x = 0x9E3779B97F4A7C15ULL;
        double acc = 0.0;
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < kIters; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc * 0.999999 + static_cast<double>(x >> 11) * 0x1.0p-53;
        }
        per_iter.push_back(seconds(Clock::now() - t0) * 1e9 / static_cast<double>(kIters));
        g_sink = acc;
    }
    std::sort(per_iter.begin(), per_iter.end());
    return per_iter[per_iter.size() / 2];
}

int cmd_info() {
    json::Value info = json::Value::object();
    info["build_type"] = SLIMBENCH_BUILD_TYPE;
    info["compiler"] = SLIMBENCH_COMPILER;
#ifdef __OPTIMIZE__
    info["optimized"] = true;
#else
    info["optimized"] = false;
#endif
#ifdef NDEBUG
    info["ndebug"] = true;
#else
    info["ndebug"] = false;
#endif
    info["calib_ns"] = calibration_ns();
    std::printf("%s\n", info.dump().c_str());
    return 0;
}

int cmd_setup(const std::string& query_path) {
    const Query q = load_query(query_path);
    eda::LoadPhases phases;
    const auto t0 = Clock::now();
    const eda::CompiledModelPtr model = compile_source(q.model_source, q.model_path, &phases);
    const auto t1 = Clock::now();
    json::Value line = json::Value::object();
    line["setup_s"] = seconds(t1 - t0);
    line["parse_s"] = phases.parse_seconds;
    line["instantiate_s"] = phases.instantiate_seconds;
    line["content_hash"] = model->content_hash();
    std::printf("%s\n", line.dump().c_str());
    return 0;
}

int cmd_run(int argc, char** argv) {
    const Query q = load_query(argv[2]);
    std::uint64_t seed = 1;
    double budget = 10.0;
    bool trace = false;
    std::string trace_out;
    for (int i = 3; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--seed") seed = std::strtoull(argv[i + 1], nullptr, 10);
        else if (flag == "--seconds") budget = std::strtod(argv[i + 1], nullptr);
        else if (flag == "--trace") trace = std::strcmp(argv[i + 1], "1") == 0;
        else if (flag == "--trace-out") trace_out = argv[i + 1];
        else throw std::runtime_error("unknown flag " + flag);
    }

    const eda::Network net(compile_source(q.model_source, q.model_path));
    // Untimed warm-up: a 16x smaller query (the CTMC flow has no size knob).
    Query warm = q;
    if (q.mode != "ctmc") warm.eps = 4.0 * q.eps;
    answer(warm, net, rep_seed(seed, 1u << 30), "warmup", true, nullptr);

    const auto start = Clock::now();
    auto elapsed = [&] { return seconds(Clock::now() - start); };
    std::uint64_t rep = 0;
    if (!trace) {
        do {
            answer(q, net, rep_seed(seed, rep++), "timed", true, nullptr);
        } while (elapsed() < budget || rep < 3);
    } else {
        Trace trace("run-" + std::to_string(seed) + "-" + std::to_string(::getpid()));
        Metrics layers;
        slimbench::probe_frontend(q, trace, 0.05 * budget, layers);
        // Interleaved so host drift hits every arm alike: untraced (the
        // end-to-end measurement), traced and telemetry off.
        const auto cycles_start = Clock::now();
        do {
            answer(q, net, rep_seed(seed, rep++), "timed", true, nullptr);
            answer(q, net, rep_seed(seed, rep++), "traced", true, &trace);
            answer(q, net, rep_seed(seed, rep++), "telemetry_off", false, nullptr);
        } while (seconds(Clock::now() - cycles_start) < 0.55 * budget);
        // The simulation probes also run on a CTMC query's model: they give
        // what simulating it would cost (the paper's Table I comparison).
        const AnalysisRequest req = slimbench::make_request(q, net, seed);
        const auto samples =
            slimbench::probe_simulation(req, net, seed, trace, 0.25 * budget, layers);
        slimbench::probe_collector(samples, trace, 0.05 * budget, layers);
        slimbench::probe_wire(samples, trace, 0.03 * budget, layers);
        if (req.mode == AnalysisMode::CtmcFlow) slimbench::probe_ctmc(req, net, trace, layers);
        if (!trace_out.empty()) {
            std::ofstream out(trace_out, std::ios::binary);
            trace.write_json(out);
            if (!out.flush()) throw std::runtime_error("cannot write " + trace_out);
        }
        json::Value line = json::Value::object();
        line["kind"] = "layers";
        json::Value metrics = json::Value::object();
        for (const slimbench::Metric& m : layers) {
            json::Value metric = json::Value::object();
            metric["value"] = m.value;
            metric["unit"] = m.unit;
            metrics[m.name] = std::move(metric);
        }
        line["metrics"] = std::move(metrics);
        std::printf("%s\n", line.dump().c_str());
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    // Supervised queries exec this binary as their workers.
    if (argc >= 3 && std::strcmp(argv[1], "--worker-mode") == 0) {
        return sim::supervise::run_worker_mode(std::atoi(argv[2]));
    }
    try {
        const std::string cmd = argc >= 2 ? argv[1] : "";
        if (cmd == "model") return cmd_model(argc, argv);
        if (cmd == "info") return cmd_info();
        if (cmd == "setup" && argc >= 3) return cmd_setup(argv[2]);
        if (cmd == "run" && argc >= 3) return cmd_run(argc, argv);
        std::fprintf(stderr, "usage: slimbench model|info|setup|run ...\n");
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "slimbench: %s\n", e.what());
        return 1;
    }
}
