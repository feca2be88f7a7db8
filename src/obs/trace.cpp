#include "obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <set>

#include "obs/metrics.h"
#include "util/strings.h"

namespace ndb::obs {

namespace detail {
std::atomic<bool> g_trace_on{false};
}  // namespace detail

namespace {

// Ring slots hold static strings only: a push is slot writes under an
// uncontended mutex, never an allocation.
struct RawEvent {
    const char* name = nullptr;
    const char* k0 = nullptr;
    const char* k1 = nullptr;
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = kInstantDur;
    std::uint64_t v0 = 0;
    std::uint64_t v1 = 0;
};

struct Ring {
    std::mutex mu;
    std::vector<RawEvent> events;  // reserve(kTraceRingCapacity) at lease time
    std::uint64_t dropped = 0;
    std::uint32_t tid = 0;
    bool leased = false;
};

struct TraceState {
    std::mutex mu;
    std::vector<std::unique_ptr<Ring>> rings;
    std::vector<TraceEventRecord> imported;
    std::uint32_t next_tid = 1;
};

TraceState& state() {
    static TraceState* s = new TraceState();  // leaked, like the registries
    return *s;
}

Ring* acquire_ring() {
    TraceState& st = state();
    const std::lock_guard<std::mutex> lock(st.mu);
    for (auto& r : st.rings) {
        if (!r->leased) {
            r->leased = true;
            return r.get();
        }
    }
    st.rings.push_back(std::make_unique<Ring>());
    Ring* r = st.rings.back().get();
    r->leased = true;
    r->tid = st.next_tid++;
    r->events.reserve(kTraceRingCapacity);
    return r;
}

void release_ring(Ring* ring) {
    TraceState& st = state();
    const std::lock_guard<std::mutex> lock(st.mu);
    ring->leased = false;  // pending events stay until drained/collected
}

struct RingLease {
    Ring* ring = nullptr;
    ~RingLease() {
        if (ring) release_ring(ring);
    }
};

Ring& local_ring() {
    thread_local RingLease lease;
    if (!lease.ring) lease.ring = acquire_ring();
    return *lease.ring;
}

void push_event(const RawEvent& ev) {
    Ring& r = local_ring();
    const std::lock_guard<std::mutex> lock(r.mu);
    if (r.events.size() >= kTraceRingCapacity) {
        ++r.dropped;
        if (metrics_on()) count(Counter::trace_events_dropped);
        return;
    }
    r.events.push_back(ev);
}

TraceEventRecord own_event(const RawEvent& ev, std::uint64_t pid,
                           std::uint32_t tid) {
    TraceEventRecord out;
    out.name = ev.name ? ev.name : "?";
    if (ev.k0) out.arg0 = ev.k0;
    if (ev.k1) out.arg1 = ev.k1;
    out.ts_ns = ev.ts_ns;
    out.dur_ns = ev.dur_ns;
    out.v0 = ev.v0;
    out.v1 = ev.v1;
    out.pid = pid;
    out.tid = tid;
    return out;
}

}  // namespace

Trace& Trace::instance() {
    static Trace* t = new Trace();
    return *t;
}

void Trace::set_enabled(bool on) {
    if (on) epoch_ns();  // pin the export epoch before any fork
    detail::g_trace_on.store(on, std::memory_order_relaxed);
}

std::vector<TraceEventRecord> Trace::drain() {
    TraceState& st = state();
    const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
    std::vector<TraceEventRecord> out;
    const std::lock_guard<std::mutex> lock(st.mu);
    for (auto& r : st.rings) {
        const std::lock_guard<std::mutex> ring_lock(r->mu);
        for (const RawEvent& ev : r->events) {
            out.push_back(own_event(ev, pid, r->tid));
        }
        r->events.clear();
    }
    return out;
}

std::vector<TraceEventRecord> Trace::collect() {
    TraceState& st = state();
    const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
    std::vector<TraceEventRecord> out;
    const std::lock_guard<std::mutex> lock(st.mu);
    for (auto& r : st.rings) {
        const std::lock_guard<std::mutex> ring_lock(r->mu);
        for (const RawEvent& ev : r->events) {
            out.push_back(own_event(ev, pid, r->tid));
        }
    }
    out.insert(out.end(), st.imported.begin(), st.imported.end());
    return out;
}

void Trace::import_events(std::vector<TraceEventRecord> events) {
    TraceState& st = state();
    const std::lock_guard<std::mutex> lock(st.mu);
    st.imported.insert(st.imported.end(),
                       std::make_move_iterator(events.begin()),
                       std::make_move_iterator(events.end()));
}

std::uint64_t Trace::dropped() const {
    TraceState& st = state();
    std::uint64_t total = 0;
    const std::lock_guard<std::mutex> lock(st.mu);
    for (const auto& r : st.rings) {
        const std::lock_guard<std::mutex> ring_lock(r->mu);
        total += r->dropped;
    }
    return total;
}

void Trace::reset() {
    TraceState& st = state();
    const std::lock_guard<std::mutex> lock(st.mu);
    for (auto& r : st.rings) {
        const std::lock_guard<std::mutex> ring_lock(r->mu);
        r->events.clear();
        r->dropped = 0;
    }
    st.imported.clear();
}

void trace_complete(const char* name, std::uint64_t start_ns,
                    std::uint64_t dur_ns, const char* k0, std::uint64_t v0,
                    const char* k1, std::uint64_t v1) {
    RawEvent ev;
    ev.name = name;
    ev.k0 = k0;
    ev.k1 = k1;
    ev.ts_ns = start_ns;
    // kInstantDur is a sentinel; a (pathological) complete event of that
    // exact duration saturates one tick short instead of changing phase.
    ev.dur_ns = dur_ns == kInstantDur ? dur_ns - 1 : dur_ns;
    ev.v0 = v0;
    ev.v1 = v1;
    push_event(ev);
}

void trace_instant(const char* name, const char* k0, std::uint64_t v0,
                   const char* k1, std::uint64_t v1) {
    RawEvent ev;
    ev.name = name;
    ev.k0 = k0;
    ev.k1 = k1;
    ev.ts_ns = now_ns();
    ev.dur_ns = kInstantDur;
    ev.v0 = v0;
    ev.v1 = v1;
    push_event(ev);
}

std::string trace_events_json(std::vector<TraceEventRecord> events) {
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEventRecord& a, const TraceEventRecord& b) {
                         return a.ts_ns < b.ts_ns;
                     });
    const std::uint64_t epoch = epoch_ns();
    const std::uint64_t self = static_cast<std::uint64_t>(::getpid());

    std::string s = "{\"traceEvents\": [\n";
    // Metadata rows first: name every pid in the merged timeline.
    std::set<std::uint64_t> pids;
    for (const TraceEventRecord& ev : events) pids.insert(ev.pid);
    bool first = true;
    for (const std::uint64_t pid : pids) {
        if (!first) s += ",\n";
        first = false;
        s += util::format(
            "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %llu, "
            "\"tid\": 0, \"args\": {\"name\": \"%s\"}}",
            static_cast<unsigned long long>(pid),
            pid == self ? "ndb parent" : "ndb worker");
    }
    for (const TraceEventRecord& ev : events) {
        if (!first) s += ",\n";
        first = false;
        // Events recorded before the epoch was pinned (there should be
        // none) clamp to 0 rather than wrapping.
        const std::uint64_t rel = ev.ts_ns > epoch ? ev.ts_ns - epoch : 0;
        s += util::format("  {\"name\": \"%s\", \"cat\": \"ndb\", ",
                          util::json_escape(ev.name).c_str());
        if (ev.instant()) {
            s += "\"ph\": \"i\", \"s\": \"t\", ";
        } else {
            s += util::format("\"ph\": \"X\", \"dur\": %.3f, ",
                              static_cast<double>(ev.dur_ns) / 1000.0);
        }
        s += util::format("\"ts\": %.3f, \"pid\": %llu, \"tid\": %u, ",
                          static_cast<double>(rel) / 1000.0,
                          static_cast<unsigned long long>(ev.pid), ev.tid);
        s += "\"args\": {";
        if (!ev.arg0.empty()) {
            s += util::format("\"%s\": %llu", util::json_escape(ev.arg0).c_str(),
                              static_cast<unsigned long long>(ev.v0));
        }
        if (!ev.arg1.empty()) {
            if (!ev.arg0.empty()) s += ", ";
            s += util::format("\"%s\": %llu", util::json_escape(ev.arg1).c_str(),
                              static_cast<unsigned long long>(ev.v1));
        }
        s += "}}";
    }
    s += "\n]}\n";
    return s;
}

}  // namespace ndb::obs
