#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* layer_name(Layer layer) {
    switch (layer) {
        case Layer::setup: return "setup";
        case Layer::specgen: return "specgen";
        case Layer::generator: return "generator";
        case Layer::target: return "target";
        case Layer::control: return "control";
        case Layer::dataplane: return "dataplane";
        case Layer::core_diff: return "core_diff";
        case Layer::core_triage: return "core_triage";
        case Layer::core_glue: return "core_glue";
        case Layer::campaign_loop: return "campaign_loop";
        case Layer::campaign_barrier: return "campaign_barrier";
        case Layer::campaign_scenario: return "campaign_scenario";
        case Layer::count_: break;
    }
    return "?";
}

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* name, Layer layer)
    : rec_(rec), index_(static_cast<std::int32_t>(rec.spans_.size())) {
    const std::int32_t parent = rec.open_.empty() ? -1 : rec.open_.back();
    rec.spans_.push_back(Span{name, layer, 0, 0, parent, rec.scenario_});
    rec.open_.push_back(index_);
    // Read the clock last so the bookkeeping above is charged to the parent.
    rec.spans_[static_cast<std::size_t>(index_)].start_ns = ndb::obs::now_ns();
}

SpanRecorder::Scope::~Scope() {
    rec_.spans_[static_cast<std::size_t>(index_)].end_ns = ndb::obs::now_ns();
    rec_.open_.pop_back();
}

std::int32_t SpanRecorder::add(const char* name, Layer layer,
                               std::uint64_t start_ns, std::uint64_t end_ns,
                               std::int32_t parent, std::uint64_t scenario) {
    spans_.push_back(Span{name, layer, start_ns, end_ns, parent, scenario});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::clear() {
    spans_.clear();
    open_.clear();
}

void SpanTotals::add(const std::vector<Span>& list) {
    std::vector<std::uint64_t> child_ns(list.size(), 0);
    for (const Span& s : list) {
        if (s.parent >= 0) {
            child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
        }
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
        const Span& s = list[i];
        const std::uint64_t dur = s.end_ns - s.start_ns;
        // Children are timed inside their parent, so this never underflows
        // for recorder-made spans; clamp for obs-derived ones.
        const std::uint64_t self = dur > child_ns[i] ? dur - child_ns[i] : 0;
        self_ns[static_cast<std::size_t>(s.layer)] += self;
        ByName& b = by_name[s.name];
        ++b.count;
        b.total_ns += dur;
    }
}

std::uint64_t SpanTotals::self_total() const {
    std::uint64_t total = 0;
    for (const std::uint64_t ns : self_ns) total += ns;
    return total;
}

double SpanTotals::mean_us(const std::string& name) const {
    const auto it = by_name.find(name);
    if (it == by_name.end() || it->second.count == 0) return 0.0;
    return static_cast<double>(it->second.total_ns) / 1e3 /
           static_cast<double>(it->second.count);
}

std::uint64_t SpanTotals::total_ns(const std::string& name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.total_ns;
}

std::string chrome_trace_json(std::span<const Span> spans) {
    std::uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
    for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
    std::string out = "{\"traceEvents\": [\n";
    char buf[384];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                      "\"args\": {\"span\": %zu, \"parent\": %d, "
                      "\"scenario\": %llu}}",
                      i ? ",\n" : "", s.name, layer_name(s.layer),
                      static_cast<double>(s.start_ns - t0) / 1e3,
                      static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                      s.parent, static_cast<unsigned long long>(s.scenario));
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

}  // namespace perfbench
