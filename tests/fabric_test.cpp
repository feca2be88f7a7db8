// Crash-tolerant multi-process fabric: the report must come out
// byte-identical to the single-process uniform sweep -- with clean links,
// with a SIGKILLed worker plus lossy fault-injected links (graceful
// degradation), and with management-plane fault injection layered on top.
// The shard-result codec refuses truncated and out-of-range bytes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

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
    // No management plan, so the robustness block holds the fabric's
    // accounting alone.
    EXPECT_NE(b.to_json().find("\"robustness\": {\"fabric\": {"), std::string::npos);
}

TEST(Fabric, RobustnessBlockWritesOnlyTheModesThatRan) {
    // "mgmt" is written only with a management fault plan and "fabric" only
    // by the fabric, so a fabric run without a plan carries no all-zero mgmt
    // block, and without either mode there is no robustness block at all.
    CampaignReport r;
    r.fabric.workers = 2;
    r.mgmt.requests = 7;
    EXPECT_EQ(r.to_json().find("\"robustness\""), std::string::npos);

    r.fabric_enabled = true;
    const std::string fabric_only = r.to_json();
    EXPECT_NE(fabric_only.find("\"robustness\": {\"fabric\": {\"workers\": 2,"),
              std::string::npos)
        << fabric_only;
    EXPECT_EQ(fabric_only.find("\"mgmt\""), std::string::npos) << fabric_only;

    r.mgmt_enabled = true;
    const std::string both = r.to_json();
    EXPECT_NE(both.find("\"robustness\": {\"mgmt\": {\"requests\": 7,"), std::string::npos)
        << both;
    EXPECT_NE(both.find("}, \"fabric\": {\"workers\": 2,"), std::string::npos) << both;

    r.fabric_enabled = false;
    const std::string mgmt_only = r.to_json();
    EXPECT_NE(mgmt_only.find("\"robustness\": {\"mgmt\": {\"requests\": 7,"),
              std::string::npos)
        << mgmt_only;
    EXPECT_EQ(mgmt_only.find("\"fabric\""), std::string::npos) << mgmt_only;
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

// The offset of the one byte at which two encodings differ.
std::size_t only_difference(const std::vector<std::uint8_t>& a,
                            const std::vector<std::uint8_t>& b) {
    EXPECT_EQ(a.size(), b.size());
    std::size_t at = a.size();
    int differences = 0;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        if (a[i] != b[i]) {
            at = i;
            ++differences;
        }
    }
    EXPECT_EQ(differences, 1);
    return at;
}

TEST(Fabric, ShardResultCodecRefusesHostileBytes) {
    // Outcomes that carry findings, management accounting and localization
    // at every stage survive the round trip.
    ShardResult result;
    result.shard_id = 7;
    result.link_faults = 3;
    for (int i = 0; i < 3; ++i) {
        ScenarioOutcome o;
        o.packets = 10u + static_cast<std::uint64_t>(i);
        o.mgmt = {2, 5, 3, 1, 1, 6, static_cast<std::uint64_t>(i)};
        DivergenceRecord rec;
        rec.seed = 100u + static_cast<std::uint64_t>(i);
        rec.backend = "sdnet";
        rec.program = "reject_filter";
        rec.quirk_signature = "accept_on_reject";
        rec.kind = i == 0 ? "mgmt" : "output";
        rec.detail = "first difference";
        rec.first_diverging_packet = 2;
        rec.minimized_count = 1;
        rec.minimized_reproduces = i != 1;
        rec.localized.diverged = true;
        rec.localized.stage = static_cast<dataplane::Stage>(i);
        rec.localized.description = "stage differs";
        rec.localized.probes = 1;
        rec.localized.packets_replayed = 2;
        rec.localized.conclusive = true;
        rec.recipe = i == 2 ? "#recipe" : "";
        rec.fingerprint = "sdnet|q|" + std::to_string(i);
        o.findings.assign(static_cast<std::size_t>(i), rec);
        result.outcomes.push_back(std::move(o));
    }
    const std::vector<std::uint8_t> bytes = encode_shard_result(result);
    ShardResult back;
    const control::wire::Decode good = decode_shard_result(bytes, back);
    ASSERT_TRUE(good) << good.reason;
    EXPECT_EQ(encode_shard_result(back), bytes);
    ASSERT_EQ(back.outcomes.size(), 3u);
    EXPECT_EQ(back.shard_id, 7u);
    EXPECT_EQ(back.link_faults, 3u);
    EXPECT_EQ(back.outcomes[2].mgmt.faults_injected, 6u);
    ASSERT_EQ(back.outcomes[2].findings.size(), 2u);
    EXPECT_EQ(back.outcomes[2].findings[1].localized.stage, dataplane::Stage::egress);
    EXPECT_EQ(back.outcomes[2].findings[1].recipe, "#recipe");
    EXPECT_TRUE(back.outcomes[2].findings[1].localized.conclusive);

    // Every truncation, and a trailing byte, is refused with a reason.
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const control::wire::Decode d = decode_shard_result(
            std::span<const std::uint8_t>(bytes.data(), cut), back);
        EXPECT_FALSE(d) << "cut at " << cut;
        EXPECT_FALSE(d.reason.empty());
    }
    std::vector<std::uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(decode_shard_result(padded, back));

    // A stage byte past egress, and a flag byte of 2 in each of a finding's
    // three flags, are refused.  Each byte is found by changing that one
    // field and diffing the encodings.
    const auto refused = [&](std::size_t at, std::uint8_t value, const char* why) {
        std::vector<std::uint8_t> bad = bytes;
        bad[at] = value;
        const control::wire::Decode d = decode_shard_result(bad, back);
        EXPECT_FALSE(d) << "byte " << at << " = " << int{value};
        EXPECT_NE(d.reason.find(why), std::string::npos) << d.reason;
    };
    const auto changed = [&](const auto& edit) {
        ShardResult r = result;
        edit(r.outcomes[1].findings[0]);
        return only_difference(bytes, encode_shard_result(r));
    };
    refused(changed([](DivergenceRecord& d) {
                d.localized.stage = dataplane::Stage::egress;
            }),
            3, "unknown stage 3");
    refused(changed([](DivergenceRecord& d) { d.localized.diverged = false; }), 2,
            "neither 0 nor 1");
    refused(changed([](DivergenceRecord& d) { d.localized.conclusive = false; }), 2,
            "neither 0 nor 1");
    refused(changed([](DivergenceRecord& d) { d.minimized_reproduces = true; }), 2,
            "neither 0 nor 1");
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
