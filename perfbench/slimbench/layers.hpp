// Per-layer probes of the traced run. Each probe times calls into one
// module's public functions from outside the library, on the run's own
// model and request, and records a span around every timed call or batch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/analysis.hpp"
#include "trace.hpp"

namespace slimbench {

/// One measured metric with its unit.
struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/// The metrics of the traced run, in the order measured.
using Metrics = std::vector<Metric>;

/// The generated inputs of one run: a model file and one analysis query.
/// Nothing here names the workload the inputs were generated for.
struct Query {
    std::string model_path;
    std::string model_source;
    std::string goal;
    double bound = 0.0;          // seconds
    std::string mode;            // estimate | estimate-parallel | ctmc
    double delta = 0.0;          // simulation modes only
    double eps = 0.0;            // simulation modes only
    std::size_t workers = 1;     // in-process threads (estimate-parallel)
    std::size_t processes = 0;   // worker subprocesses (0 = in-process)
    std::size_t curve_points = 0; // uniform grid up to `bound` (0 = scalar)
};

/// Builds the analysis request for `query` at `seed` (property resolved
/// against `net`'s model).
[[nodiscard]] slimsim::AnalysisRequest make_request(const Query& query,
                                                   const slimsim::eda::Network& net,
                                                   std::uint64_t seed);

/// Front end: eda::load_instance_model (slim parse + instantiate, split by
/// eda::LoadPhases) and the uncached compile behind eda::compile_model.
void probe_frontend(const Query& query, Trace& trace, double budget_s, Metrics& out);

/// One simulated path outcome, kept as the workload's sample stream for the
/// collector and wire probes.
struct PathSample {
    bool satisfied = false;
    std::uint8_t terminal = 0;
    double end_time = 0.0;
    std::uint64_t steps = 0;
};

/// Per-path loop, network operations and RNG streams, with the request's
/// property and strategy: sim.path_ns, sim.steps_per_path, sim.step_ns,
/// sim.strategy_choose_ns, sim.strategy_share, eda.*, rng.split_ns. Path j
/// draws from Rng(seed).split(j). Returns the simulated outcomes.
std::vector<PathSample> probe_simulation(const slimsim::AnalysisRequest& request,
                                         const slimsim::eda::Network& net,
                                         std::uint64_t seed, Trace& trace,
                                         double budget_s, Metrics& out);

/// Sample plumbing: 4 producer threads push `samples` into a
/// stat::SampleCollector while this thread drains rounds.
void probe_collector(const std::vector<PathSample>& samples, Trace& trace,
                     double budget_s, Metrics& out);

/// Worker protocol: `samples` as 64-sample SLIMWIRE SAMPLES frames through
/// encode_frame and FrameBuffer::next.
void probe_wire(const std::vector<PathSample>& samples, Trace& trace, double budget_s,
                Metrics& out);

/// CTMC flow stages of the request's property, called one by one:
/// build_state_space, eliminate_vanishing, minimize, transient_reachability.
void probe_ctmc(const slimsim::AnalysisRequest& request, const slimsim::eda::Network& net,
                Trace& trace, Metrics& out);

} // namespace slimbench
