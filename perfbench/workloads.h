// The benchmark's four workloads.  Each one is a fixed amount of work per
// batch, generated from the workload seed, driven only through the
// framework's public entry points, and checked batch by batch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

// Counts a traced batch records at the same boundaries as its spans.
struct Tally {
    std::uint64_t scenarios = 0;
    std::uint64_t loads = 0;         // every Device::load, triage replays included
    std::uint64_t apply_ops = 0;     // config ops applied on detection runs
    std::uint64_t detect_packets = 0;  // packets injected on detection runs
    std::uint64_t first_packets = 0;   // detection runs that injected anything
    std::uint64_t generated = 0;       // packets built by scenario_packets
    std::uint64_t diffs = 0;
    std::uint64_t findings = 0;
    std::uint64_t replays = 0;         // minimize prefix replays
    std::uint64_t replays_wasted = 0;  // replays whose prefix did not diverge
    std::uint64_t probes = 0;          // FaultLocalizer tap-arm rounds
    // Guided campaign only.
    std::uint64_t rounds = 0;
    std::uint64_t mutated = 0;
    std::uint64_t concolic_injected = 0;
    std::uint64_t coverage_edges = 0;
    std::uint64_t trace_events_dropped = 0;
};

// What one fixed-work batch produced.
struct BatchResult {
    std::uint64_t scenarios = 0;  // attempted
    std::uint64_t failed = 0;     // threw, or failed the workload's output check
    double wall_s = 0;
    std::string report;           // folded CampaignReport JSON
    std::vector<std::string> problems;
};

// Table-lookup counts from the existing obs counters.
struct LookupCounts {
    std::uint64_t lookups = 0;
    std::uint64_t packets = 0;
};

class Workload {
public:
    explicit Workload(std::uint64_t scenarios) : scenarios_(scenarios) {}
    virtual ~Workload() = default;

    // Scenarios in one batch.
    std::uint64_t scenarios() const { return scenarios_; }

    // One set-up as a user pays it: compile the workload's programs
    // (SpecGenerator) and build its device pool (WorkerContext).
    virtual void setup() = 0;
    // The P4 frontend part of setup() alone.
    virtual void compile() = 0;

    // Builds the state batches reuse; called once before the first batch.
    virtual void prepare() = 0;

    // The measured path.
    virtual BatchResult run_batch() = 0;
    // The same work with spans around every layer call.  The folded report
    // must be byte-identical to run_batch()'s.
    virtual BatchResult run_traced(SpanRecorder& spans, Tally& tally) = 0;
    // One untraced batch with the obs metrics registry on.
    LookupCounts count_lookups();

protected:
    std::uint64_t scenarios_;
};

std::vector<std::string> workload_names();

// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
