// Scenario execution core, shared by CampaignEngine (threads) and
// FabricEngine (forked worker processes).
//
// Everything here is a pure function of (scenario, backend set, options):
// run one scenario on a device pool, diff each DUT run against the
// reference run in causal order (control-plane acceptance -> table shape ->
// stage taps -> output stream -> status counters), and triage divergences
// (minimize, localize, fingerprint).  Keeping this in one place is what
// lets a multi-process fabric promise reports byte-identical to the
// single-process sweep: both sides call execute_scenario() and fold the
// outcomes through the same ReportBuilder in the same deterministic order.
//
// Management-plane fault injection (ExecOptions::mgmt): DUT configuration
// is delivered through a control::WireChannel over a fault-injected
// loopback transport while the reference's channel stays clean.  A config
// op that exhausts its retry budget fails with a "wire: ..." Status; the
// acceptance diff then classifies the divergence as kind "mgmt" -- the
// management plane itself as a divergence surface.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "control/transport.h"
#include "core/campaign.h"
#include "coverage/coverage.h"
#include "dataplane/digest.h"
#include "dataplane/engine.h"
#include "packet/packet.h"
#include "target/device.h"

namespace ndb::core {

// Injection timeline: fixed epoch + one 84-byte wire slot per packet, the
// same on every device.  Pinning rx_time explicitly (instead of letting each
// device stamp its own clock) keeps scenario behaviour independent of how
// many scenarios a worker's reused devices have already processed -- the
// determinism-under-sharding contract depends on it.
inline constexpr std::uint64_t kEpochNs = 1'000'000;
inline constexpr std::uint64_t kSlotNs = 672;

struct StreamItem {
    std::uint32_t port = 0;
    packet::Packet pkt;
};

// Everything observable from running one scenario on one device.
struct DeviceRun {
    std::vector<bool> config_ok;
    // Parallel to config_ok: the op failed at the wire layer (timeout or
    // decode error on the management channel), not in the device runtime.
    std::vector<bool> config_wire_fail;
    std::vector<StreamItem> observed;
    std::vector<dataplane::TapDigest> taps;  // empty when the stream outran the ring
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
    ChannelAccounting mgmt;
    // Reference-device coverage of the detection run (guided mode only):
    // just the lit slots, so an outcome costs what the run lit, not a
    // whole map.
    std::vector<coverage::SlotHits> coverage;
    // Per-DUT coverage of the same detection run, parallel to the sweep's
    // backend list.  Each device salts its edges by backend identity, so a
    // quirk that bends execution onto a different path lights slots no
    // reference run can -- DUT-side novelty the scheduler can reward.
    std::vector<std::vector<coverage::SlotHits>> dut_coverage;
};

// Per-worker device pool: one reference instance plus one instance per DUT
// backend, reused across every scenario the worker claims (load() replaces
// the image and all dynamic state).
struct WorkerContext {
    std::unique_ptr<target::Device> reference;
    std::vector<std::unique_ptr<target::Device>> duts;  // parallel to specs
    // Guided mode: every detection run records here, and execute_scenario
    // moves the lit slots into the outcome, which leaves the map empty.
    coverage::CoverageMap coverage;

    // The trailing Engine is accepted and ignored: the interpreter is the
    // only engine, and the parameter goes once no caller passes it.
    WorkerContext(const std::string& reference_backend,
                  const std::vector<BackendSpec>& specs,
                  dataplane::Engine = dataplane::Engine::interpreter);
};

// A DUT's management-channel configuration: the fault plan applied to its
// config delivery (the client retries under WireChannel's default budget).
struct MgmtLink {
    bool enabled = false;
    control::FaultPlan plan;
};

// The scenario's packet stream on the fixed kEpochNs/kSlotNs timeline.
std::vector<packet::Packet> scenario_packets(const Scenario& sc);

// Runs one scenario on one device.  `packets` is borrowed, so a triage
// replay passes a prefix of the stream without copying it.  When `mgmt` is
// non-null and enabled, configuration is applied through a faulted wire
// channel (accounting accumulated into `acct` when non-null); otherwise
// config ops hit the device runtime directly.
DeviceRun run_scenario_on(target::Device& dev, const Scenario& sc,
                          std::span<const packet::Packet> packets,
                          std::size_t batch_size,
                          const MgmtLink* mgmt = nullptr,
                          ChannelAccounting* acct = nullptr);

// First observable difference between a DUT run and the reference run, in
// causal order: control-plane acceptance, then the output stream, then the
// internal status counters.
std::optional<RawDivergence> diff_runs(const DeviceRun& dut,
                                       const DeviceRun& ref);

// Knobs execute_scenario() needs from CampaignConfig (kept separate so the
// fabric worker ships options, not the whole config).
struct ExecOptions {
    std::size_t batch_size = 8;
    bool minimize = true;
    bool localize = true;
    bool coverage = false;
    // Base management link; execute_scenario derives the per-(scenario,
    // DUT) plan seed from it, so the schedule is identical no matter which
    // thread, worker or process runs the slot.
    MgmtLink mgmt;
};

// Runs `sc` on the pool and appends triaged findings to `outcome` --
// detection, minimization, localization, fingerprinting.  `recipe` is the
// slot's mutation parentage ("" = fresh seed).
void execute_scenario(WorkerContext& ctx, const Scenario& sc,
                      const std::vector<BackendSpec>& duts,
                      const ExecOptions& options, ScenarioOutcome& outcome,
                      const std::string& recipe);

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
