// Crash-tolerant multi-process campaign fabric.
//
// FabricEngine runs the uniform campaign sweep across forked worker
// subprocesses that speak the wire protocol (control/wire.h) over
// socketpairs: the parent dispatches shards of the sweep's program-grouped
// run order (SpecGenerator::program_grouped_order, the order CampaignEngine
// runs) as `job` frames, workers execute them through the same
// execute_scenario() core the in-process engine uses and stream back
// `job_result` frames, and a heartbeat watchdog detects hung or killed
// workers.  A worker that dies
// mid-shard is respawned and its shard re-dispatched, so a SIGKILL costs
// latency, never correctness: outcomes are folded in scenario order at the
// end, which keeps the CampaignReport byte-identical to the single-process
// run (the fabric's own accounting block is the one timing-dependent
// addition, and it is excluded from byte-identity by construction).
//
// Each parent<->worker link is a pair of control::FdTransports, so its
// frames move through the same control::FrameLink as the management wire's:
// both ends fault what they send under FabricConfig::link_fault_plan and
// resynchronize what they receive.  Dropped/corrupted/delayed frames are
// absorbed by frame resync, job retransmission and, in the limit, the
// watchdog's kill-and-re-dispatch path -- the same degradation ladder a
// real distributed test harness needs.  Teardown frames (shutdown, a
// worker's last telemetry delta) bypass the plan.
//
// A job frame carries a ShardJob and a job_result frame a ShardResult.
// Each is one field list run by control/wire.h's Writer and strict Reader,
// so a result frame with a stage byte past egress, a flag byte other than 0
// or 1, or any truncation is refused with a reason; the parent treats a
// refused result like a lost one, and the job-resend path recovers it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "control/wire.h"
#include "core/campaign.h"
#include "core/scenario_exec.h"

namespace ndb::core {

// A job frame's payload: `count` positions of the sweep's run order from
// `start`.  The frame's seq is the shard id.
struct ShardJob {
    std::uint64_t start = 0;
    std::uint32_t count = 0;
};

// A job_result frame's payload: the shard's outcomes, one per scenario in
// run order.  Only what the parent's ReportBuilder folds crosses the wire
// (the packet count, management accounting and findings; a finding's
// duplicates and discovery ordinal are fold outputs).  `link_faults` counts
// the fault decisions of the worker's own link end since its previous
// result, which the parent cannot observe.
struct ShardResult {
    std::uint64_t shard_id = 0;
    std::uint64_t link_faults = 0;
    std::vector<ScenarioOutcome> outcomes;
};

std::vector<std::uint8_t> encode_shard_job(const ShardJob& job);
control::wire::Decode decode_shard_job(std::span<const std::uint8_t> payload,
                                       ShardJob& out);
std::vector<std::uint8_t> encode_shard_result(const ShardResult& result);
control::wire::Decode decode_shard_result(std::span<const std::uint8_t> payload,
                                          ShardResult& out);

struct FabricConfig {
    // The sweep to run.  Fabric supports the uniform sweep only: guided
    // coverage, mutation, concolic and single-recipe modes keep their
    // feedback loops at round barriers inside one process.
    CampaignConfig campaign;

    int workers = 2;
    std::uint64_t shard_size = 4;  // scenarios per job frame

    // control::FaultPlan spec applied to every parent<->worker link (both
    // directions, per-endpoint salted seeds).  Empty or "none" = clean.
    std::string link_fault_plan;

    // Test/CI hook: SIGKILL worker 0 once, after this many job results have
    // been received (-1 = never).  Exercises the respawn + re-dispatch path
    // deterministically enough for assertions on worker_restarts.
    int kill_worker_after_results = -1;
};

class FabricEngine {
public:
    explicit FabricEngine(FabricConfig config);

    // Forks the workers, runs the sweep, reaps everything.  Throws
    // std::invalid_argument before any fork for a worker count or shard size
    // out of range, a malformed fault plan (link or management) or a
    // campaign mode other than the uniform sweep, and std::runtime_error
    // when a worker slot exceeds its respawn budget.
    CampaignReport run();

    const CampaignStats& stats() const { return stats_; }

private:
    FabricConfig config_;
    CampaignStats stats_;
};

}  // namespace ndb::core
