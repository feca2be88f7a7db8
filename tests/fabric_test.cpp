// Crash-tolerant multi-process fabric: the report must come out
// byte-identical to the single-process uniform sweep -- with clean links,
// with a SIGKILLed worker plus lossy fault-injected links (graceful
// degradation), and with management-plane fault injection layered on top.
#include <gtest/gtest.h>

#include <unistd.h>

#include <set>
#include <stdexcept>
#include <string>

#include "core/campaign.h"
#include "core/fabric.h"
#include "obs/telemetry.h"

namespace {

using namespace ndb;
using namespace ndb::core;

CampaignConfig base_config() {
    CampaignConfig c;
    c.base_seed = 1;
    c.scenarios = 24;
    c.threads = 1;
    return c;
}

// The fabric accounting block is the report's one timing-dependent part
// (which worker dies with which shard in flight is the OS scheduler's
// call); byte-identity is asserted on everything else.
std::string json_without_fabric(CampaignReport r) {
    r.fabric_enabled = false;
    r.fabric = FabricAccounting{};
    return r.to_json();
}

TEST(Fabric, CleanRunByteIdenticalToSingleProcess) {
    const CampaignConfig cfg = base_config();

    CampaignEngine single(cfg);
    const CampaignReport a = single.run();

    FabricConfig f;
    f.campaign = cfg;
    f.workers = 3;
    f.shard_size = 4;
    FabricEngine fabric(f);
    const CampaignReport b = fabric.run();

    EXPECT_TRUE(b.fabric_enabled);
    EXPECT_EQ(b.fabric.workers, 3u);
    EXPECT_EQ(b.fabric.worker_restarts, 0u);
    EXPECT_GT(b.fabric.link_frames, 0u);
    EXPECT_EQ(a.to_json(), json_without_fabric(b));
}

TEST(Fabric, SurvivesWorkerKillAndLossyLinks) {
    const CampaignConfig cfg = base_config();

    CampaignEngine single(cfg);
    const CampaignReport a = single.run();

    // One worker is SIGKILLed mid-campaign AND every parent<->worker link
    // drops/duplicates/reorders/corrupts/delays frames: the sweep must
    // still complete with the identical report, the damage visible only in
    // the accounting.
    FabricConfig f;
    f.campaign = cfg;
    f.workers = 3;
    f.shard_size = 2;
    f.link_fault_plan =
        "seed=5,drop=0.15,dup=0.1,reorder=0.1,corrupt=0.1,delay=0.2,"
        "delay_ticks=2";
    f.kill_worker_after_results = 2;
    FabricEngine fabric(f);
    const CampaignReport b = fabric.run();

    EXPECT_GE(b.fabric.worker_restarts, 1u);
    EXPECT_GT(b.fabric.link_faults, 0u);
    EXPECT_EQ(a.to_json(), json_without_fabric(b));
}

TEST(Fabric, MgmtFaultInjectionStaysDeterministicAcrossProcessCounts) {
    // A harsh management plan makes some DUT config ops exhaust their retry
    // budget -- a "mgmt" divergence class the data path cannot produce.
    // The schedule is a pure function of (plan seed, program, scenario
    // seed, DUT index), so every execution topology must report the same
    // findings and the same mgmt accounting.
    CampaignConfig cfg = base_config();
    cfg.scenarios = 16;
    cfg.mgmt_fault_plan = "seed=11,drop=0.7";

    CampaignEngine single(cfg);
    const CampaignReport a = single.run();

    CampaignConfig threaded = cfg;
    threaded.threads = 2;
    CampaignEngine multi(threaded);
    const CampaignReport a2 = multi.run();
    EXPECT_EQ(a.to_json(), a2.to_json());

    FabricConfig f;
    f.campaign = cfg;
    f.workers = 2;
    f.shard_size = 4;
    FabricEngine fabric(f);
    const CampaignReport b = fabric.run();

    EXPECT_TRUE(a.mgmt_enabled);
    EXPECT_GT(a.mgmt.retries, 0u);
    EXPECT_GT(a.mgmt.timeouts, 0u);
    EXPECT_GT(a.mgmt.faults_injected, 0u);
    bool saw_mgmt_kind = false;
    for (const auto& d : a.divergences) {
        if (d.kind == "mgmt") saw_mgmt_kind = true;
    }
    EXPECT_TRUE(saw_mgmt_kind)
        << "harsh mgmt plan produced no mgmt-kind divergence";
    EXPECT_EQ(a.to_json(), json_without_fabric(b));
}

TEST(Fabric, TelemetryDeltasMergeAcrossWorkersWithoutTouchingTheReport) {
    const CampaignConfig cfg = base_config();

    // Baseline: telemetry off, single process.
    obs::Telemetry::set_enabled(false, false);
    CampaignEngine single(cfg);
    const CampaignReport a = single.run();

    // Telemetry on across a 3-worker fabric: the report must still match,
    // and the parent must end up holding every worker's metrics and events.
    obs::Telemetry::set_enabled(true, true);
    obs::Telemetry::reset();
    FabricConfig f;
    f.campaign = cfg;
    f.workers = 3;
    f.shard_size = 4;
    FabricEngine fabric(f);
    const CampaignReport b = fabric.run();
    EXPECT_EQ(a.to_json(), json_without_fabric(b));

    const obs::MetricsSnapshot merged = obs::Telemetry::merged_metrics();
    // Scenarios execute in the workers; their counts only reach the parent
    // via heartbeat-ack deltas.  GE, not EQ: a slow machine can trip the
    // job-resend timer and re-execute a shard (dedup keeps the report
    // identical, but the exact-counters see both executions).
    EXPECT_GE(
        merged.counters[static_cast<std::size_t>(obs::Counter::scenarios)],
        cfg.scenarios);
    EXPECT_GE(
        merged.counters[static_cast<std::size_t>(obs::Counter::worker_spawns)],
        3u);
    EXPECT_EQ(merged.gauges[static_cast<std::size_t>(obs::Gauge::fabric_workers)],
              3);

    // The merged timeline spans the parent plus all three worker pids.
    std::set<std::uint64_t> pids;
    bool parent_event = false;
    for (const auto& ev : obs::Telemetry::collect_trace_events()) {
        pids.insert(ev.pid);
        if (ev.pid == static_cast<std::uint64_t>(::getpid())) {
            parent_event = true;
        }
    }
    EXPECT_TRUE(parent_event);
    EXPECT_GE(pids.size(), 4u) << "expected parent + 3 distinct worker pids";

    const std::string doc = obs::Telemetry::trace_json();
    EXPECT_EQ(doc.rfind("{\"traceEvents\"", 0), 0u);
    EXPECT_NE(doc.find("ndb worker"), std::string::npos);
    EXPECT_NE(doc.find("ndb parent"), std::string::npos);

    obs::Telemetry::set_enabled(false, false);
    obs::Telemetry::reset();
}

TEST(Fabric, UniformSweepBuildsEachImageOncePerProgramPerWorker) {
    // Shards cut the sweep's program-grouped run order, so each worker meets
    // the programs in order and its devices build each image at most once.
    // Cut in seed order, the shards would rebuild on nearly every scenario
    // (about 2 x 144 x 17/18 builds).
    CampaignConfig cfg = base_config();
    cfg.scenarios = 144;
    CampaignEngine single(cfg);
    const CampaignReport a = single.run();

    obs::Telemetry::set_enabled(true, false);
    obs::Telemetry::reset();
    FabricConfig f;
    f.campaign = cfg;
    f.workers = 2;
    FabricEngine fabric(f);
    const CampaignReport b = fabric.run();
    const obs::MetricsSnapshot merged = obs::Telemetry::merged_metrics();
    obs::Telemetry::set_enabled(false, false);
    obs::Telemetry::reset();

    EXPECT_EQ(a.to_json(), json_without_fabric(b));
    ASSERT_EQ(b.programs.size(), 18u);
    const std::uint64_t devices = 1 + b.backends.size();  // reference + DUTs
    ASSERT_EQ(devices, 2u);
    // A re-sent or re-dispatched shard may run on a worker whose devices
    // have moved on to later programs.
    const std::uint64_t slack =
        (b.fabric.jobs_resent + b.fabric.shards_redispatched) * devices *
        f.shard_size;
    const std::uint64_t builds =
        merged.counters[static_cast<std::size_t>(obs::Counter::image_builds)];
    EXPECT_LE(builds, 2u * devices * 18u + slack);
    EXPECT_GE(merged.counters[static_cast<std::size_t>(obs::Counter::scenarios)],
              cfg.scenarios);
}

TEST(Fabric, MalformedConfigIsRefusedBeforeAnyWorkerForks) {
    obs::Telemetry::set_enabled(true, false);
    obs::Telemetry::reset();
    FabricConfig f;
    f.campaign = base_config();
    f.workers = 2;
    {
        FabricConfig g = f;
        g.campaign.mgmt_fault_plan = "drop=0.5,bogus=1";
        EXPECT_THROW(FabricEngine(g).run(), std::invalid_argument);
    }
    {
        FabricConfig g = f;
        g.link_fault_plan = "drop";
        EXPECT_THROW(FabricEngine(g).run(), std::invalid_argument);
    }
    // A worker could only die building its devices, respawn after respawn.
    {
        FabricConfig g = f;
        g.campaign.duts = {BackendSpec{"no_such_backend", std::nullopt, ""}};
        EXPECT_THROW(FabricEngine(g).run(), std::invalid_argument);
    }
    {
        FabricConfig g = f;
        g.campaign.reference_backend = "no_such_backend";
        EXPECT_THROW(FabricEngine(g).run(), std::invalid_argument);
    }
    const obs::MetricsSnapshot snap = obs::Metrics::instance().snapshot();
    obs::Telemetry::set_enabled(false, false);
    obs::Telemetry::reset();
    EXPECT_EQ(snap.counters[static_cast<std::size_t>(obs::Counter::worker_spawns)],
              0u);
    EXPECT_EQ(snap.counters[static_cast<std::size_t>(obs::Counter::scenarios)], 0u);
}

TEST(Fabric, RejectsModesThatNeedASharedFeedbackLoop) {
    FabricConfig f;
    f.campaign = base_config();
    f.workers = 2;

    {
        FabricConfig g = f;
        g.campaign.coverage = true;
        EXPECT_THROW(FabricEngine(g).run(), std::invalid_argument);
    }
    {
        FabricConfig g = f;
        g.campaign.mutate = true;
        EXPECT_THROW(FabricEngine(g).run(), std::invalid_argument);
    }
    {
        FabricConfig g = f;
        g.campaign.concolic = true;
        EXPECT_THROW(FabricEngine(g).run(), std::invalid_argument);
    }
    {
        FabricConfig g = f;
        g.campaign.mutation_recipe = "#whatever";
        EXPECT_THROW(FabricEngine(g).run(), std::invalid_argument);
    }
    {
        FabricConfig g = f;
        g.workers = 0;
        EXPECT_THROW(FabricEngine(g).run(), std::invalid_argument);
    }
    {
        FabricConfig g = f;
        g.shard_size = 0;
        EXPECT_THROW(FabricEngine(g).run(), std::invalid_argument);
    }
}

}  // namespace
