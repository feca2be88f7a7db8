// Scenario execution core, shared by CampaignEngine (threads) and
// FabricEngine (forked worker processes).
//
// Everything here is a pure function of (scenario, backend set, options):
// run one scenario on a device pool, diff each DUT run against the
// reference run in causal order (config acceptance -> table shape ->
// extern state -> stage taps -> output stream -> stage counters -> table
// hits), and triage divergences (minimize, localize, fingerprint).
// Keeping this in one place is what lets a multi-process fabric promise
// reports byte-identical to the single-process sweep: both sides call
// execute_scenario() and fold the outcomes through the same ReportBuilder
// in the same deterministic order.
//
// Management-plane fault injection (ExecOptions::mgmt_plan): DUT configuration
// is delivered through a control::WireChannel over a fault-injected
// loopback transport while the reference's channel stays clean.  A config
// op that exhausts its retry budget fails with a "wire: ..." Status; the
// acceptance diff then classifies the divergence as kind "mgmt" -- the
// management plane itself as a divergence surface.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "control/transport.h"
#include "core/campaign.h"
#include "core/specgen.h"
#include "coverage/coverage.h"
#include "dataplane/digest.h"
#include "dataplane/engine.h"
#include "packet/packet.h"
#include "target/device.h"

namespace ndb::core {

struct StreamItem {
    std::uint32_t port = 0;
    packet::Packet pkt;
};

// Everything observable from running one scenario on one device.  A run
// refilled by run_scenario_on keeps every vector's capacity, so a warm
// device's run allocates nothing.
struct DeviceRun {
    std::vector<bool> config_ok;
    // Parallel to config_ok: the op failed at the wire layer (timeout or
    // decode error on the management channel), not in the device runtime.
    std::vector<bool> config_wire_fail;
    std::vector<StreamItem> observed;
    // One stage digest per injected packet, in injection order (the device's
    // digest ring is emptied into it after every batch, so a stream of any
    // length keeps them all).
    std::vector<dataplane::TapDigest> taps;
    control::StatusSnapshot snapshot;
    std::uint64_t injected = 0;
};

// The pre-triage core of a finding.
struct RawDivergence {
    std::string kind;
    std::string detail;
    std::uint64_t first_diverging_packet = 0;
};

struct ScenarioOutcome {
    std::uint64_t packets = 0;  // inject() calls issued, triage included
    std::vector<DivergenceRecord> findings;
    // Management-channel traffic of this scenario's DUT runs (zero when
    // mgmt fault injection is off).
    control::ChannelStats mgmt;
    // Reference-device coverage of the detection run (guided mode only):
    // just the lit slots, so an outcome costs what the run lit, not a
    // whole map.
    std::vector<coverage::SlotHits> coverage;
    // Per-DUT coverage of the same detection run, parallel to the sweep's
    // backend list.  Each device salts its edges by backend identity, so a
    // quirk that bends execution onto a different path lights slots no
    // reference run can -- DUT-side novelty the scheduler can reward.
    std::vector<std::vector<coverage::SlotHits>> dut_coverage;

    // Empties the outcome for another scenario and keeps every vector's
    // capacity, so a buffer reused from round to round (the guided loop's)
    // takes the next scenario's lit slots without allocating.
    void clear() {
        packets = 0;
        findings.clear();
        mgmt = {};
        coverage.clear();
        for (auto& lit : dut_coverage) lit.clear();
    }
};

// Per-worker device pool: one reference instance plus one instance per DUT
// backend, reused across every scenario the worker claims (load() replaces
// the image and all dynamic state).
struct WorkerContext {
    std::unique_ptr<target::Device> reference;
    std::vector<std::unique_ptr<target::Device>> duts;  // parallel to specs
    // Guided mode: every detection run records here, and execute_scenario
    // hands the lit slots to the outcome's lists, which leaves the map
    // empty.
    coverage::CoverageMap coverage;
    // Buffers execute_scenario refills for every scenario, keeping their
    // capacity: the stimulus stream, the reference's and the current DUT's
    // detection runs, and the two runs of each triage replay.
    std::vector<packet::Packet> stimulus;
    DeviceRun reference_run;
    DeviceRun dut_run;
    DeviceRun reference_replay;
    DeviceRun dut_replay;

    // The trailing Engine is accepted and ignored: the interpreter is the
    // only engine, and the parameter goes once no caller passes it.
    WorkerContext(const std::string& reference_backend,
                  const std::vector<BackendSpec>& specs,
                  dataplane::Engine = dataplane::Engine::interpreter);
};

// The scenario's packet stream on the device clock's timeline: packet `seq`
// is stamped target::kClockEpochNs + (seq - 1) slots, a slot being
// target::kNsPerPacket unless the spec sets a rate.  Pinning rx_time
// explicitly (instead of letting each device stamp its own clock) keeps
// scenario behaviour independent of how many scenarios a worker's reused
// devices have already processed -- the determinism-under-sharding contract
// depends on it.  Written into `out` (cleared first; its capacity is kept).
void scenario_packets(const Scenario& sc, std::vector<packet::Packet>& out);
std::vector<packet::Packet> scenario_packets(const Scenario& sc);

// Runs one scenario on one device into `run`, which is cleared first and
// keeps every capacity, so a run refilled on the device that holds the
// scenario's image allocates nothing (a rejected config op allocates its
// Status message).  `packets` is borrowed, so a triage replay passes a
// prefix of the stream without copying it.  When `mgmt` names an enabled
// fault plan, configuration is applied through a wire channel faulted by it
// (the client retries under WireChannel's default budget; accounting
// accumulates into `acct` when non-null); otherwise config ops hit the
// device runtime one at a time.
void run_scenario_on(target::Device& dev, const Scenario& sc,
                     std::span<const packet::Packet> packets,
                     std::size_t batch_size, DeviceRun& run,
                     const control::FaultPlan* mgmt = nullptr,
                     control::ChannelStats* acct = nullptr);

// The same run into a fresh DeviceRun.
DeviceRun run_scenario_on(target::Device& dev, const Scenario& sc,
                          std::span<const packet::Packet> packets,
                          std::size_t batch_size,
                          const control::FaultPlan* mgmt = nullptr,
                          control::ChannelStats* acct = nullptr);

// First observable difference between a DUT run and the reference run, in
// causal order: config acceptance, table shape (capacity and entries),
// extern state, stage taps, the output stream, stage counters, and table
// hits and misses.  The search itself formats nothing; only a difference
// it finds is described.
std::optional<RawDivergence> diff_runs(const DeviceRun& dut,
                                       const DeviceRun& ref);

// Knobs execute_scenario() needs from CampaignConfig, derived once by
// prepare_sweep().  Fabric workers inherit them through fork().
struct ExecOptions {
    std::size_t batch_size = 8;
    bool minimize = true;
    bool localize = true;
    bool coverage = false;
    // Fault plan for every DUT's management channel (disabled = config ops
    // go straight to the device runtime).  execute_scenario derives the
    // per-(scenario, DUT) plan seed from it, so the schedule is identical no
    // matter which thread, worker or process runs the slot.
    control::FaultPlan mgmt_plan;
};

// Runs `sc` on the pool and appends triaged findings to `outcome` --
// detection, minimization, localization, fingerprinting.  In guided mode
// the outcome's coverage lists are overwritten with the detection runs'
// lit slots.  `recipe` is the slot's encoded parentage ("" = fresh seed).
void execute_scenario(WorkerContext& ctx, const Scenario& sc,
                      const std::vector<BackendSpec>& duts,
                      const ExecOptions& options, ScenarioOutcome& outcome,
                      const std::string& recipe);

// How a campaign runs its scenarios.
enum class SweepMode {
    uniform,  // every seed in [base_seed, base_seed + scenarios) once
    guided,   // coverage, mutate or concolic: scheduler rounds
    replay,   // exactly the scenario of CampaignConfig::mutation_recipe
};

// Everything a sweep needs from its CampaignConfig, derived once and shared
// by CampaignEngine and FabricEngine, so the two cannot drift apart.
struct SweepSetup {
    SweepMode mode = SweepMode::uniform;
    SpecGenerator gen;
    std::vector<BackendSpec> duts;  // sweep order, labels filled in
    ExecOptions exec;
    // The report before any scenario runs: seeds, programs, backend labels,
    // engine and which optional blocks it renders.
    CampaignReport report;
};

// Derives the sweep: the mode; the generator over config.programs; the
// DUTs, where an empty list means every registered backend but the
// reference and an empty label the backend name; the execution options,
// where coverage, mutate and concolic each turn coverage recording on
// (also in a replay); and the report header.  Throws std::invalid_argument
// for an unknown program or backend or a malformed mgmt_fault_plan, before
// any scenario runs or any worker forks.
SweepSetup prepare_sweep(const CampaignConfig& config);

// Wall-clock throughput of `report`'s scenarios and packets since `t0`.
CampaignStats sweep_stats(const CampaignReport& report,
                          std::chrono::steady_clock::time_point t0);

// Folds outcomes into a CampaignReport in call order.  Callers feed
// outcomes in deterministic scenario order; dedup keeps the first finding
// per fingerprint and counts the rest, so the resulting report is
// byte-identical no matter how the outcomes were produced.
class ReportBuilder {
public:
    explicit ReportBuilder(CampaignReport& report) : report_(&report) {}

    // Returns whether the outcome contributed a previously unseen
    // fingerprint (the guided scheduler's freshness bonus).
    bool fold(ScenarioOutcome& outcome);

private:
    CampaignReport* report_;
    std::map<std::string, std::size_t> seen_;
    std::uint64_t merge_ordinal_ = 0;
};

}  // namespace ndb::core
