#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "ctmc/bisim.hpp"
#include "ctmc/imc.hpp"
#include "ctmc/state_space.hpp"
#include "ctmc/uniformization.hpp"
#include "sim/path_generator.hpp"
#include "sim/supervise/wire.hpp"
#include "stat/collector.hpp"

namespace slimbench {

using namespace slimsim;
using Clock = std::chrono::steady_clock;

namespace {

// Keeps measured results observable so the compiler cannot drop the work.
volatile std::uint64_t g_sink = 0;

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Times `call` under a span named by `name` on `lane`; adds the time to
/// `busy`.
template <typename F>
void timed(tracer::Lane& lane, tracer::NameId name, Clock::duration& busy, F&& call) {
    lane.begin(name);
    const auto t0 = Clock::now();
    call();
    busy += Clock::now() - t0;
    lane.end();
}

/// Wraps the run's real strategy and times every choose() call; each call
/// is also recorded as a span, inside the span of the path being simulated.
class TimedStrategy final : public sim::Strategy {
public:
    TimedStrategy(std::unique_ptr<sim::Strategy> inner, tracer::Lane& lane)
        : inner_(std::move(inner)), lane_(lane), name_(lane.intern("sim.strategy_choose")) {}

    [[nodiscard]] std::string name() const override { return inner_->name(); }

    Clock::duration busy{};
    std::uint64_t calls = 0;

protected:
    std::optional<sim::ScheduledChoice>
    choose_impl(const eda::Network& net, const eda::NetworkState& state,
                std::span<const eda::Candidate> candidates, double horizon,
                Rng& rng) override {
        std::optional<sim::ScheduledChoice> choice;
        timed(lane_, name_, busy,
              [&] { choice = inner_->choose(net, state, candidates, horizon, rng); });
        ++calls;
        return choice;
    }

private:
    std::unique_ptr<sim::Strategy> inner_;
    tracer::Lane& lane_;
    tracer::NameId name_;
};

/// A state visited by a step()-driven path, with the delay window the
/// path generator would hand to the strategy there.
struct Visited {
    eda::NetworkState state;
    double window = 0.0;
};

void probe_network_ops(const eda::Network& net, const sim::PathFormula& property,
                       const std::vector<eda::NetworkState>& states, tracer::Lane& lane,
                       double budget_s, Metrics& out) {
    const tracer::Span layer(&lane, lane.intern("eda.ops"));
    const tracer::NameId n_horizon = lane.intern("eda.invariant_horizon");
    const tracer::NameId n_cands = lane.intern("eda.candidates");
    const tracer::NameId n_elapse = lane.intern("eda.elapse");
    const tracer::NameId n_exec = lane.intern("eda.execute");
    eda::SimScratch scratch;
    std::vector<Visited> visited;
    // execute() inputs: the state advanced to the first candidate's earliest
    // enabling delay, and that candidate.
    std::vector<std::pair<eda::NetworkState, eda::Candidate>> firable;
    Rng rng(7);
    for (const eda::NetworkState& s : states) {
        const double horizon = net.invariant_horizon(s, scratch);
        const double remaining = property.bound - s.time;
        if (!(remaining > 0.0)) continue;
        const double window = std::isinf(horizon) ? remaining : horizon;
        visited.push_back({s, window});
        const auto cands = net.candidates(s, window, scratch);
        if (cands.empty()) continue;
        const eda::Candidate c = cands.front();
        eda::NetworkState at = s;
        net.elapse(at, c.enabled.earliest().value_or(0.0));
        eda::NetworkState probe = at;
        try {
            (void)net.execute(probe, c, rng, scratch);
        } catch (const std::exception&) {
            continue; // not firable from this state; the op is timed elsewhere
        }
        firable.emplace_back(std::move(at), c);
    }

    Clock::duration t_horizon{}, t_cands{}, t_elapse{}, t_exec{};
    std::uint64_t n_states = 0, n_executed = 0, sink = 0;
    const auto deadline = Clock::now() + std::chrono::duration<double>(budget_s);
    do {
        timed(lane, n_horizon, t_horizon, [&] {
            for (const Visited& v : visited) {
                sink += static_cast<std::uint64_t>(
                    std::isinf(net.invariant_horizon(v.state, scratch)));
            }
        });
        timed(lane, n_cands, t_cands, [&] {
            for (const Visited& v : visited) {
                sink += net.candidates(v.state, v.window, scratch).size();
            }
        });
        std::vector<Visited> copies = visited;
        timed(lane, n_elapse, t_elapse, [&] {
            for (Visited& v : copies) net.elapse(v.state, 0.5 * v.window);
        });
        auto exec_copies = firable;
        timed(lane, n_exec, t_exec, [&] {
            for (auto& [s, c] : exec_copies) sink += net.execute(s, c, rng, scratch).fired.size();
        });

        n_states += visited.size();
        n_executed += firable.size();
    } while (Clock::now() < deadline);
    g_sink = sink;

    const double per_state = n_states > 0 ? 1e9 / static_cast<double>(n_states) : 0.0;
    out.push_back({"eda.candidates_ns", seconds(t_cands) * per_state, "ns"});
    out.push_back({"eda.invariant_horizon_ns", seconds(t_horizon) * per_state, "ns"});
    out.push_back({"eda.elapse_ns", seconds(t_elapse) * per_state, "ns"});
    out.push_back({"eda.execute_ns",
                   ratio(seconds(t_exec) * 1e9, static_cast<double>(n_executed)), "ns"});
    out.push_back({"eda.interned_states", static_cast<double>(scratch.interner.size()), "count"});
}

} // namespace

AnalysisRequest make_request(const Query& query, const eda::Network& net,
                             std::uint64_t seed) {
    AnalysisRequest req;
    req.property = sim::make_reachability(net.model(), query.goal, query.bound);
    req.seed = seed;
    if (query.mode == "ctmc") {
        req.mode = AnalysisMode::CtmcFlow;
        return req;
    }
    req.delta = query.delta;
    req.eps = query.eps;
    if (query.mode == "estimate-parallel") {
        req.mode = AnalysisMode::EstimateParallel;
        req.workers = query.workers;
    } else if (query.mode == "estimate") {
        req.mode = AnalysisMode::Estimate;
    } else {
        throw std::runtime_error("unknown mode " + query.mode);
    }
    for (std::size_t i = 1; i <= query.curve_points; ++i) {
        req.curve_bounds.push_back(query.bound * static_cast<double>(i) /
                                   static_cast<double>(query.curve_points));
    }
    req.curve_band = stat::BandKind::DKW;
    req.supervision.processes = query.processes;
    req.supervision.model_path = query.model_path;
    return req;
}

void probe_frontend(const Query& query, Trace& trace, double budget_s, Metrics& out) {
    tracer::Lane& lane = trace.main();
    const tracer::Span layer(&lane, lane.intern("frontend"));
    const tracer::NameId n_load = lane.intern("slim.load");
    const tracer::NameId n_compile = lane.intern("eda.compile");
    std::vector<double> parse, instantiate, compile;
    eda::CompileStats stats;
    const auto deadline = Clock::now() + std::chrono::duration<double>(budget_s);
    do {
        eda::LoadPhases phases;
        std::shared_ptr<const slim::InstanceModel> model;
        {
            const tracer::Span load(&lane, n_load);
            model = eda::load_instance_model(query.model_source, query.model_path, &phases);
        }
        parse.push_back(phases.parse_seconds);
        instantiate.push_back(phases.instantiate_seconds);
        // compile_model() serves repeats from its content-hash cache; the
        // constructor is the compilation it runs on a miss.
        Clock::duration busy{};
        std::shared_ptr<const eda::CompiledModel> compiled;
        timed(lane, n_compile, busy,
              [&] { compiled = std::make_shared<const eda::CompiledModel>(model); });
        compile.push_back(seconds(busy));
        stats = compiled->stats();
    } while ((Clock::now() < deadline && compile.size() < 200) || compile.size() < 5);
    out.push_back({"slim.parse_s", median(parse), "s"});
    out.push_back({"slim.instantiate_s", median(instantiate), "s"});
    out.push_back({"eda.compile_s", median(compile), "s"});
    out.push_back({"expr.unique_programs", static_cast<double>(stats.unique_programs), "count"});
    out.push_back({"expr.dedup_ratio",
                   ratio(static_cast<double>(stats.programs),
                         static_cast<double>(stats.unique_programs)),
                   "ratio"});
}

std::vector<PathSample> probe_simulation(const AnalysisRequest& request, const eda::Network& net,
                                         std::uint64_t seed, Trace& trace,
                                         double budget_s, Metrics& out) {
    constexpr std::size_t kKeptSamples = 1 << 16;
    constexpr std::size_t kVisitedStates = 4096;
    constexpr int kBatch = 64;
    // Bounds the spans of the per-call pass (two or more per path).
    constexpr std::uint64_t kStrategyPaths = 5000;
    tracer::Lane& lane = trace.main();
    const tracer::Span layer(&lane, lane.intern("sim"));
    const sim::PathFormula& property = request.property;
    // The per-path streams every estimation runner can use: path j draws
    // from Rng(seed).split(j).
    const Rng master(seed);
    auto budget = [&](double share) {
        return Clock::now() + std::chrono::duration<double>(budget_s * share);
    };

    // PathGenerator::run over consecutive per-path streams.
    std::vector<PathSample> samples;
    {
        const tracer::Span pass(&lane, lane.intern("sim.paths"));
        const tracer::NameId n_batch = lane.intern("sim.path_batch");
        const auto strategy = sim::make_strategy(request.strategy);
        const sim::PathGenerator gen(net, property, *strategy);
        std::uint64_t paths = 0, steps = 0;
        Clock::duration busy{};
        const auto deadline = budget(0.35);
        do {
            timed(lane, n_batch, busy, [&] {
                for (int k = 0; k < kBatch; ++k) {
                    Rng rng = master.split(paths++);
                    const sim::PathOutcome o = gen.run(rng);
                    steps += o.steps;
                    if (samples.size() < kKeptSamples) {
                        samples.push_back({o.satisfied, static_cast<std::uint8_t>(o.terminal),
                                           o.end_time, o.steps});
                    }
                }
            });
        } while (Clock::now() < deadline);
        out.push_back({"sim.path_ns", seconds(busy) * 1e9 / static_cast<double>(paths), "ns"});
        out.push_back({"sim.steps_per_path",
                       static_cast<double>(steps) / static_cast<double>(paths), "count"});
    }

    // The same paths with the strategy wrapped: a span per path and one per
    // choose() call inside it.
    {
        const tracer::Span pass(&lane, lane.intern("sim.strategy_paths"));
        const tracer::NameId n_path = lane.intern("sim.path");
        TimedStrategy strategy(sim::make_strategy(request.strategy), lane);
        const sim::PathGenerator gen(net, property, strategy);
        Clock::duration path_busy{};
        std::uint64_t j = 0;
        const auto deadline = budget(0.2);
        do {
            Rng rng = master.split(j++);
            timed(lane, n_path, path_busy, [&] { g_sink = gen.run(rng).steps; });
        } while (Clock::now() < deadline && j < kStrategyPaths);
        out.push_back({"sim.strategy_choose_ns",
                       ratio(seconds(strategy.busy) * 1e9, static_cast<double>(strategy.calls)),
                       "ns"});
        out.push_back({"sim.strategy_share", ratio(seconds(strategy.busy), seconds(path_busy)),
                       "ratio"});
    }

    // PathGenerator::step: first collect the states step()-driven paths
    // visit (untimed), then time whole step()-driven paths.
    std::vector<eda::NetworkState> visited;
    {
        const auto strategy = sim::make_strategy(request.strategy);
        const sim::PathGenerator gen(net, property, *strategy);
        for (std::uint64_t j = 0; visited.size() < kVisitedStates && j < 4 * kVisitedStates; ++j) {
            eda::NetworkState s = net.initial_state();
            Rng rng = master.split(j);
            std::size_t steps = 0;
            do {
                visited.push_back(s);
            } while (!gen.step(s, rng, steps));
        }
    }
    {
        const tracer::Span pass(&lane, lane.intern("sim.step_paths"));
        const tracer::NameId n_batch = lane.intern("sim.step_batch");
        const auto strategy = sim::make_strategy(request.strategy);
        const sim::PathGenerator gen(net, property, *strategy);
        Clock::duration busy{};
        std::uint64_t calls = 0, j = 0;
        const auto deadline = budget(0.2);
        do {
            timed(lane, n_batch, busy, [&] {
                for (int k = 0; k < kBatch; ++k) {
                    eda::NetworkState s = net.initial_state();
                    Rng rng = master.split(j++);
                    std::size_t steps = 0;
                    do {
                        ++calls;
                    } while (!gen.step(s, rng, steps));
                }
            });
        } while (Clock::now() < deadline);
        out.push_back({"sim.step_ns", seconds(busy) * 1e9 / static_cast<double>(calls), "ns"});
    }

    probe_network_ops(net, property, visited, lane, budget_s * 0.2, out);

    {
        const tracer::Span pass(&lane, lane.intern("rng.split"));
        std::uint64_t n = 0, sink = 0;
        Clock::duration busy{};
        const auto deadline = budget(0.05);
        do {
            const auto t0 = Clock::now();
            for (int k = 0; k < 4096; ++k) {
                Rng child = master.split(n++);
                sink ^= child();
            }
            busy += Clock::now() - t0;
        } while (Clock::now() < deadline);
        g_sink = sink;
        out.push_back({"rng.split_ns", seconds(busy) * 1e9 / static_cast<double>(n), "ns"});
    }
    return samples;
}

void probe_collector(const std::vector<PathSample>& samples, Trace& trace, double budget_s,
                     Metrics& out) {
    constexpr std::size_t kProducers = 4;
    tracer::Lane& lane = trace.main();
    const tracer::Span layer(&lane, lane.intern("stat.collector"));
    const tracer::NameId n_push = lane.intern("stat.collector.push");
    const tracer::NameId n_drain = lane.intern("stat.collector.drain");
    std::vector<tracer::Lane*> producer_lanes;
    for (std::size_t w = 0; w < kProducers; ++w) {
        producer_lanes.push_back(&trace.lane("bench producer " + std::to_string(w)));
    }
    const std::size_t per_producer = std::min<std::size_t>(samples.size(), 1 << 14);
    double push_seconds = 0.0, drain_seconds = 0.0;
    std::uint64_t pushed = 0, drained = 0;
    const auto deadline = Clock::now() + std::chrono::duration<double>(budget_s);
    do {
        stat::SampleCollector collector(kProducers);
        std::atomic<bool> go{false};
        std::vector<Clock::duration> busy(kProducers);
        std::vector<std::thread> producers;
        for (std::size_t w = 0; w < kProducers; ++w) {
            producers.emplace_back([&, w] {
                while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
                timed(*producer_lanes[w], n_push, busy[w], [&] {
                    for (std::size_t i = 0; i < per_producer; ++i) {
                        const PathSample& s = samples[(w * per_producer + i) % samples.size()];
                        collector.push(w, stat::TaggedSample{s.satisfied, s.terminal, s.end_time,
                                                             s.steps});
                    }
                });
            });
        }
        stat::BernoulliSummary summary;
        std::vector<std::uint64_t> tags;
        std::uint64_t steps = 0;
        const std::size_t total = kProducers * per_producer;
        std::size_t consumed = 0;
        {
            const tracer::Span drain(&lane, n_drain);
            go.store(true, std::memory_order_release);
            while (consumed < total) {
                const auto t0 = Clock::now();
                const std::size_t n = collector.drain_rounds(
                    summary, static_cast<std::size_t>(-1), &tags, &steps);
                if (n > 0) {
                    drain_seconds += seconds(Clock::now() - t0);
                } else {
                    std::this_thread::yield();
                }
                consumed += n;
            }
        }
        for (auto& t : producers) t.join();
        for (const Clock::duration b : busy) push_seconds += seconds(b);
        pushed += total;
        drained += consumed;
    } while (Clock::now() < deadline);
    out.push_back({"stat.collector.push_ns",
                   ratio(push_seconds * 1e9, static_cast<double>(pushed)), "ns"});
    out.push_back({"stat.collector.drain_ns",
                   ratio(drain_seconds * 1e9, static_cast<double>(drained)), "ns"});
}

void probe_wire(const std::vector<PathSample>& samples, Trace& trace, double budget_s,
                Metrics& out) {
    namespace wire = sim::supervise;
    constexpr std::size_t kBatch = 64;
    tracer::Lane& lane = trace.main();
    const tracer::Span layer(&lane, lane.intern("wire"));
    const tracer::NameId n_encode = lane.intern("wire.encode");
    const tracer::NameId n_decode = lane.intern("wire.decode");
    Clock::duration t_encode{}, t_decode{};
    std::uint64_t encoded = 0, decoded = 0;
    const auto deadline = Clock::now() + std::chrono::duration<double>(budget_s);
    do {
        std::string stream;
        timed(lane, n_encode, t_encode, [&] {
            for (std::size_t first = 0; first + kBatch <= samples.size(); first += kBatch) {
                std::string payload;
                wire::put_u64(payload, first);
                wire::put_u32(payload, static_cast<std::uint32_t>(kBatch));
                for (std::size_t i = first; i < first + kBatch; ++i) {
                    wire::put_u8(payload, samples[i].satisfied ? 1 : 0);
                    wire::put_u8(payload, samples[i].terminal);
                    wire::put_f64(payload, samples[i].end_time);
                    wire::put_u64(payload, samples[i].steps);
                    wire::put_string(payload, "");
                }
                stream += wire::encode_frame(wire::FrameType::Samples, payload);
                encoded += kBatch;
            }
        });

        wire::FrameBuffer buffer;
        std::uint64_t steps = 0;
        timed(lane, n_decode, t_decode, [&] {
            buffer.feed(stream.data(), stream.size());
            wire::Frame frame;
            while (buffer.next(frame) == wire::FrameBuffer::Status::Ok) {
                wire::PayloadReader r(frame.payload);
                (void)r.get_u64();
                const std::uint32_t count = r.get_u32();
                for (std::uint32_t i = 0; i < count; ++i) {
                    (void)r.get_u8();
                    (void)r.get_u8();
                    (void)r.get_f64();
                    steps += r.get_u64();
                    (void)r.get_string();
                }
                decoded += count;
            }
        });
        g_sink = steps;
        if (buffer.buffered() != 0 || decoded != encoded) {
            throw std::runtime_error("SLIMWIRE round trip lost samples");
        }
    } while (Clock::now() < deadline);
    out.push_back({"wire.encode_ns_per_sample",
                   ratio(seconds(t_encode) * 1e9, static_cast<double>(encoded)), "ns"});
    out.push_back({"wire.decode_ns_per_sample",
                   ratio(seconds(t_decode) * 1e9, static_cast<double>(decoded)), "ns"});
}

void probe_ctmc(const AnalysisRequest& request, const eda::Network& net, Trace& trace,
                Metrics& out) {
    tracer::Lane& lane = trace.main();
    const tracer::Span layer(&lane, lane.intern("ctmc.flow"));
    const sim::PathFormula& property = request.property;
    auto stage = [&](const char* name, auto&& call) {
        lane.begin(lane.intern(name));
        const auto t0 = Clock::now();
        auto result = call();
        const auto t1 = Clock::now();
        lane.end();
        out.push_back({std::string(name) + "_s", seconds(t1 - t0), "s"});
        return result;
    };
    ctmc::BuildStats build;
    const ctmc::Imc imc = stage("ctmc.explore", [&] {
        return ctmc::build_state_space(net, *property.goal, ctmc::BuildOptions{}, &build);
    });
    const ctmc::CtmcModel chain = stage("ctmc.eliminate", [&] { return ctmc::eliminate_vanishing(imc); });
    const ctmc::CtmcModel lumped = stage("ctmc.minimize", [&] { return ctmc::minimize(chain); });
    ctmc::TransientStats transient;
    g_sink = static_cast<std::uint64_t>(1e12 * stage("ctmc.transient", [&] {
        return ctmc::transient_reachability(lumped, property.bound, ctmc::TransientOptions{},
                                            &transient);
    }));
    out.push_back({"ctmc.imc_states", static_cast<double>(imc.states.size()), "count"});
    out.push_back({"ctmc.states", static_cast<double>(chain.state_count()), "count"});
    out.push_back({"ctmc.lumped_states", static_cast<double>(lumped.state_count()), "count"});
    out.push_back({"ctmc.poisson_terms", static_cast<double>(transient.iterations), "count"});
}

} // namespace slimbench
