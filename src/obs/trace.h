// Structured trace layer: bounded per-thread event rings exported as Chrome
// trace_event JSON (view in chrome://tracing or ui.perfetto.dev).
//
// Events are coarse -- scheduler rounds, scenario executions, divergences,
// worker lifecycle, wire retries -- never per-packet, so a ring push (one
// uncontended mutex + a slot write) is far off the packet hot path.  Rings
// drop the newest event when full rather than allocate, and count the drops.
//
// Two collection modes:
//   * drain()   -- destructive: moves local ring contents out.  The fabric
//                  worker ships drained events home in heartbeat deltas so
//                  nothing is re-shipped.
//   * collect() -- non-destructive copy of local rings plus every imported
//                  (worker-shipped) event.  The parent's exporter and the
//                  tests use this; reset() is the only eraser on this path.
//
// Like the metrics registry, everything is observe-only and gated on one
// relaxed atomic load when tracing is off.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ndb::obs {

namespace detail {
extern std::atomic<bool> g_trace_on;
}  // namespace detail

inline bool trace_on() {
    return detail::g_trace_on.load(std::memory_order_relaxed);
}

// Events one thread's ring holds before it drops the newest.
inline constexpr std::size_t kTraceRingCapacity = 4096;

// dur_ns sentinel distinguishing instant events ("i") from complete
// events ("X") in the export.
inline constexpr std::uint64_t kInstantDur = ~0ull;

// One owned event, as drained/collected/imported (ring slots themselves
// hold static strings and never allocate).
struct TraceEventRecord {
    std::string name;
    std::string arg0;  // empty = absent
    std::string arg1;
    std::uint64_t ts_ns = 0;  // absolute CLOCK_MONOTONIC
    std::uint64_t dur_ns = kInstantDur;
    std::uint64_t v0 = 0;
    std::uint64_t v1 = 0;
    std::uint64_t pid = 0;
    std::uint32_t tid = 0;

    bool instant() const { return dur_ns == kInstantDur; }
    bool operator==(const TraceEventRecord&) const = default;
};

class Trace {
public:
    static Trace& instance();  // leaked singleton, like Metrics

    void set_enabled(bool on);

    // Destructive: local ring contents, stamped with this process's pid.
    std::vector<TraceEventRecord> drain();

    // Non-destructive: local rings (stamped) plus imported events.
    std::vector<TraceEventRecord> collect();

    // Worker-shipped events (already pid-stamped by the worker).
    void import_events(std::vector<TraceEventRecord> events);

    // Events lost to full rings since the last reset.
    std::uint64_t dropped() const;

    // Clears rings, imported events, and the drop counter.
    void reset();

private:
    Trace() = default;
};

// Recording API -- call only when trace_on().  `name`/`k0`/`k1` must be
// string literals (stored as pointers in the ring).
void trace_complete(const char* name, std::uint64_t start_ns,
                    std::uint64_t dur_ns, const char* k0 = nullptr,
                    std::uint64_t v0 = 0, const char* k1 = nullptr,
                    std::uint64_t v1 = 0);
void trace_instant(const char* name, const char* k0 = nullptr,
                   std::uint64_t v0 = 0, const char* k1 = nullptr,
                   std::uint64_t v1 = 0);

// Chrome trace_event JSON ({"traceEvents": [...]}) over the given events:
// stable-sorted by timestamp, ts/dur in microseconds relative to
// epoch_ns(), one process_name metadata row per distinct pid.
std::string trace_events_json(std::vector<TraceEventRecord> events);

}  // namespace ndb::obs
