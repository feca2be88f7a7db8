// Telemetry facade: one switch for the metrics registry + trace layer, the
// merged export views, and the deltas the campaign fabric ships over its
// heartbeat frames (encoded by control/wire.h's telemetry delta codec).
//
// Multi-process model: the parent enables telemetry before forking workers
// (fork inherits the enable flags and the trace epoch).  Each worker resets
// its inherited copy at startup, then answers every heartbeat with an ack
// whose payload is the encoded delta since its last ack -- metrics
// subtraction is exact (pure bucket counts) and trace events drain exactly
// once.  The parent decodes and imports each delta, so merged_metrics() /
// trace_json() are one coherent cross-process view.  Deltas are observe-only
// cargo: under injected link faults an in-flight delta can be lost with its
// frame (the final one rides the shutdown path, which bypasses injection).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ndb::obs {

// What one worker ships home per heartbeat: its pid, the metrics recorded
// since the previous ship, and the trace events drained since then.
struct TelemetryDelta {
    std::uint64_t pid = 0;
    MetricsSnapshot metrics;
    std::vector<TraceEventRecord> events;

    bool empty() const { return events.empty() && metrics.empty(); }
};

class Telemetry {
public:
    // Enables/disables the two layers independently; pins the trace epoch
    // on first enable so forked workers share the parent's timeline.
    static void set_enabled(bool metrics, bool tracing);
    static bool any_enabled() { return metrics_on() || trace_on(); }

    // Zeroes everything local: shards, rings, imported events/metrics and
    // the delta baseline.  A forked worker calls this first so its deltas
    // exclude whatever the parent recorded pre-fork.
    static void reset();

    // Local snapshot plus every imported worker delta.
    static MetricsSnapshot merged_metrics();

    // Non-destructive merged event view (local rings + imported).
    static std::vector<TraceEventRecord> collect_trace_events();

    // {"telemetry": ..., "metrics": {...}} over merged_metrics().
    static std::string metrics_json();

    // Chrome trace_event JSON over collect_trace_events().
    static std::string trace_json();

    // Worker side: metrics-since-last-call + drained events.
    static TelemetryDelta take_delta();

    // Parent side: folds a decoded delta into the imported accumulators.
    static void import_delta(TelemetryDelta delta);

    // Writes `content` to `path`; on failure returns false with a
    // diagnostic in `error` (callers keep their exit code: telemetry loss
    // is never a run failure).
    static bool write_file(const std::string& path, const std::string& content,
                           std::string& error);
};

}  // namespace ndb::obs
