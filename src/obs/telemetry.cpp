#include "obs/telemetry.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <mutex>
#include <utility>

#include "util/strings.h"

namespace ndb::obs {

namespace {

// The imported accumulators + per-process delta baseline.  Leaked like the
// other obs singletons (trace events may arrive while threads still exit).
struct ImportState {
    std::mutex mu;
    MetricsSnapshot imported;     // sum of every imported delta's metrics
    MetricsSnapshot last_shipped;  // take_delta baseline (local snapshot)
};

ImportState& import_state() {
    static ImportState* s = new ImportState();
    return *s;
}

}  // namespace

void Telemetry::set_enabled(bool metrics, bool tracing) {
    Metrics::instance().set_enabled(metrics);
    Trace::instance().set_enabled(tracing);
}

void Telemetry::reset() {
    Metrics::instance().reset();
    Trace::instance().reset();
    ImportState& st = import_state();
    const std::lock_guard<std::mutex> lock(st.mu);
    st.imported = MetricsSnapshot{};
    st.last_shipped = MetricsSnapshot{};
}

MetricsSnapshot Telemetry::merged_metrics() {
    MetricsSnapshot out = Metrics::instance().snapshot();
    ImportState& st = import_state();
    const std::lock_guard<std::mutex> lock(st.mu);
    out.add(st.imported);
    return out;
}

std::vector<TraceEventRecord> Telemetry::collect_trace_events() {
    return Trace::instance().collect();
}

std::string Telemetry::metrics_json() {
    std::string s = "{\n";
    s += "  \"telemetry\": \"ndb\",\n";
    s += util::format("  \"pid\": %llu,\n",
                      static_cast<unsigned long long>(::getpid()));
    s += util::format("  \"trace_events_dropped\": %llu,\n",
                      static_cast<unsigned long long>(
                          Trace::instance().dropped()));
    s += "  \"metrics\": " + merged_metrics().to_json(2) + "\n";
    s += "}\n";
    return s;
}

std::string Telemetry::trace_json() {
    return trace_events_json(collect_trace_events());
}

TelemetryDelta Telemetry::take_delta() {
    TelemetryDelta delta;
    delta.pid = static_cast<std::uint64_t>(::getpid());
    const MetricsSnapshot current = Metrics::instance().snapshot();
    ImportState& st = import_state();
    {
        const std::lock_guard<std::mutex> lock(st.mu);
        delta.metrics = current;
        delta.metrics.subtract(st.last_shipped);
        st.last_shipped = current;
    }
    delta.events = Trace::instance().drain();
    return delta;
}

void Telemetry::import_delta(TelemetryDelta delta) {
    {
        ImportState& st = import_state();
        const std::lock_guard<std::mutex> lock(st.mu);
        st.imported.add(delta.metrics);
    }
    if (!delta.events.empty()) {
        Trace::instance().import_events(std::move(delta.events));
    }
}

bool Telemetry::write_file(const std::string& path, const std::string& content,
                           std::string& error) {
    std::ofstream out(path);
    if (!out) {
        error = std::strerror(errno);
        return false;
    }
    out << content;
    out.close();
    if (!out) {
        error = "write failed";
        return false;
    }
    return true;
}

}  // namespace ndb::obs
