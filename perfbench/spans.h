// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into the
// framework's public entry points (nothing inside src/ is instrumented).
// Each span carries a layer, a parent link and the id of the scenario it
// belongs to; a layer's self time is the span's duration minus the part of
// it that child spans cover.  Spans stay in memory until the caller folds
// them into SpanTotals and, optionally, writes them as Chrome trace JSON.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

// Layers of the framework as the benchmark sees them.  The first block is
// what the scenario replica splits execute_scenario() into; the campaign_*
// block is what the guided workload reads off the existing obs trace events.
enum class Layer : int {
    setup = 0,          // SpecGenerator + device pool inside a campaign run
    specgen,            // core/specgen: SpecGenerator::make
    generator,          // core/generator: scenario_packets
    target,             // target::Device load() and snapshot()
    control,            // control apply of the scenario's config ops
    dataplane,          // inject + drain through the pipeline
    core_diff,          // core::diff_runs
    core_triage,        // minimize replays + FaultLocalizer
    core_glue,          // execute_scenario's own bookkeeping + report fold
    campaign_loop,      // CampaignEngine::run outside its rounds
    campaign_barrier,   // a guided round minus its scenario spans
    campaign_scenario,  // one execute_scenario, opaque (guided only)
    count_,
};
inline constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::count_);

const char* layer_name(Layer layer);

struct Span {
    const char* name = "";
    Layer layer = Layer::core_glue;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int32_t parent = -1;  // index into the recorder's spans, -1 = root
    std::uint64_t scenario = 0;
};

class SpanRecorder {
public:
    // Opens a span on construction and closes it on destruction; spans
    // opened while it lives become its children.
    class Scope {
    public:
        Scope(SpanRecorder& rec, const char* name, Layer layer);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanRecorder& rec_;
        std::int32_t index_;
    };

    Scope scope(const char* name, Layer layer) { return Scope(*this, name, layer); }

    // Scenario id stamped on every span opened from now on.
    void set_scenario(std::uint64_t id) { scenario_ = id; }

    // Appends an already-timed span (used for obs-recorded events).
    std::int32_t add(const char* name, Layer layer, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::int32_t parent,
                     std::uint64_t scenario);

    const std::vector<Span>& spans() const { return spans_; }
    void clear();

private:
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
    std::uint64_t scenario_ = 0;
};

// Running totals over every traced batch.
struct SpanTotals {
    std::array<std::uint64_t, kNumLayers> self_ns{};
    struct ByName {
        std::uint64_t count = 0;
        std::uint64_t total_ns = 0;
    };
    std::map<std::string, ByName> by_name;

    void add(const std::vector<Span>& spans);
    std::uint64_t self_total() const;
    double mean_us(const std::string& name) const;
    std::uint64_t total_ns(const std::string& name) const;
};

// Chrome trace_event JSON ({"traceEvents": [...]}), one complete event per
// span with its layer as the category and span/parent/scenario ids as args.
std::string chrome_trace_json(std::span<const Span> spans);

}  // namespace perfbench
