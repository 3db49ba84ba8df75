#include "trace.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <stdexcept>

#include "support/json.hpp"

namespace slimbench {

using namespace slimsim;

namespace {

// Bounds the spans one lane keeps; the probes record far fewer.
constexpr std::size_t kLaneCapacity = std::size_t{1} << 20;

struct Node {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t id;
    std::uint32_t parent;
};

} // namespace

Trace::Trace(std::string run_id)
    : run_id_(std::move(run_id)), tracer_(tracer::Tracer::Options{true, kLaneCapacity}) {
    lanes_.push_back(tracer_.lane("bench main"));
}

tracer::Lane& Trace::lane(std::string_view label) {
    tracer::Lane* lane = tracer_.lane(label);
    if (std::find(lanes_.begin(), lanes_.end(), lane) == lanes_.end()) lanes_.push_back(lane);
    return *lane;
}

void Trace::write_json(std::ostream& out) const {
    // Main-lane spans in start order, parents before children: the
    // candidates for the parent of another lane's top-level span.
    std::vector<Node> main_spans;
    auto covering = [&](std::int64_t start, std::int64_t end) -> std::uint32_t {
        auto it = std::upper_bound(main_spans.begin(), main_spans.end(), start,
                                   [](std::int64_t t, const Node& n) { return t < n.start_ns; });
        // The last main span to start before `start`, then its ancestors.
        for (std::uint32_t id = it == main_spans.begin() ? 0 : std::prev(it)->id; id != 0;
             id = main_spans[id - 1].parent) {
            if (main_spans[id - 1].end_ns >= end) return id;
        }
        return 0;
    };

    const std::string run = json::escape(run_id_);
    out << "{\"run_id\":" << run << ",\"spans\":[";
    std::uint32_t next_id = 1;
    for (const tracer::Lane* lane : lanes_) {
        if (lane->dropped() > 0) {
            throw std::runtime_error("trace lane '" + lane->label() + "' lost spans");
        }
        const std::vector<tracer::Event> events = lane->events();
        // A lane keeps spans in the order they end; visit them in the order
        // they start, an enclosing span before the spans inside it.
        std::vector<std::size_t> order(events.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            const tracer::Event& x = events[a];
            const tracer::Event& y = events[b];
            if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
            if (x.dur_ns != y.dur_ns) return x.dur_ns > y.dur_ns;
            return a > b;
        });
        const bool is_main = lane == lanes_.front();
        std::vector<Node> open;
        for (const std::size_t i : order) {
            const tracer::Event& e = events[i];
            if (e.dur_ns < 0) continue; // instants; the benchmark records none
            const std::int64_t end = e.ts_ns + e.dur_ns;
            while (!open.empty() && open.back().end_ns < end) open.pop_back();
            const std::uint32_t parent =
                !open.empty() ? open.back().id : is_main ? 0 : covering(e.ts_ns, end);
            const Node node{e.ts_ns, end, next_id++, parent};
            open.push_back(node);
            if (is_main) main_spans.push_back(node);
            out << (node.id == 1 ? "\n" : ",\n") << "{\"id\":" << node.id
                << ",\"parent\":" << node.parent
                << ",\"name\":" << json::escape(tracer_.name(e.name)) << ",\"run_id\":" << run
                << ",\"start_ns\":" << node.start_ns << ",\"end_ns\":" << node.end_ns << "}";
        }
    }
    out << "\n]}\n";
}

} // namespace slimbench
