// The traced run's spans, recorded on the library's own tracer lanes.
//
// Spans are recorded from the benchmark's own code, around calls into the
// library's public functions; nothing inside the library is instrumented for
// them. Each recording thread has its own tracer::Lane, the main thread's
// first, and a lane's spans nest by begin/end. A span that opens on another
// lane outside any span of that lane belongs to the innermost main-lane span
// that covers it in time. Spans stay in memory and are written out once, at
// the end, each with an id, its parent and the run id that all spans of one
// workload run share. A layer's self time is its span's duration minus the
// part of that interval its child spans cover (README.md, "Reading the
// trace").
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "support/tracer/tracer.hpp"

namespace slimbench {

class Trace {
public:
    explicit Trace(std::string run_id);

    Trace(const Trace&) = delete;
    Trace& operator=(const Trace&) = delete;

    /// The lane labelled `label`, created on first use. Create a thread's
    /// lane before starting the thread.
    slimsim::tracer::Lane& lane(std::string_view label);
    /// The main thread's lane.
    slimsim::tracer::Lane& main() { return *lanes_.front(); }

    /// Writes {"run_id", "spans": [{"id", "parent", "name", "run_id",
    /// "start_ns", "end_ns"}, ...]}; parent 0 is the run itself. Streamed,
    /// one span per line. Throws if a lane overflowed and lost spans.
    void write_json(std::ostream& out) const;

private:
    std::string run_id_;
    slimsim::tracer::Tracer tracer_;
    std::vector<slimsim::tracer::Lane*> lanes_;
};

} // namespace slimbench
