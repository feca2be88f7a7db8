// CampaignEngine contract tests: determinism under sharding, dedup,
// minimization, and registry-driven backend sweeps.
#include <gtest/gtest.h>

#include <set>

#include "core/campaign.h"
#include "core/scenario_exec.h"
#include "core/specgen.h"
#include "dataplane/engine.h"
#include "obs/telemetry.h"
#include "target/device.h"

namespace {

using namespace ndb;

core::CampaignConfig default_config(std::uint64_t scenarios, int threads) {
    core::CampaignConfig config;
    config.base_seed = 7;
    config.scenarios = scenarios;
    config.threads = threads;
    // Pin the DUT list: other tests may grow the process-global registry.
    config.duts = {core::BackendSpec{"sdnet", std::nullopt, "sdnet"}};
    return config;
}

// One sdnet DUT per single quirk flag, the state-quirk family included:
// each one diverges on different programs, so a sweep over the catalogue
// exercises triage on many image switches.
std::vector<core::BackendSpec> ten_flag_duts() {
    std::vector<core::BackendSpec> duts;
    const auto add = [&duts](const char* label, auto set) {
        dataplane::Quirks q;
        set(q);
        duts.push_back(core::BackendSpec{"sdnet", q, label});
    };
    add("reject_as_accept", [](dataplane::Quirks& q) { q.reject_as_accept = true; });
    add("parser_depth_limit", [](dataplane::Quirks& q) { q.parser_depth_limit = 4; });
    add("skip_checksum_update",
        [](dataplane::Quirks& q) { q.skip_checksum_update = true; });
    add("shift_miscompile", [](dataplane::Quirks& q) { q.shift_miscompile = true; });
    add("table_size_clamp", [](dataplane::Quirks& q) { q.table_size_clamp = 2; });
    add("ternary_priority_inverted",
        [](dataplane::Quirks& q) { q.ternary_priority_inverted = true; });
    add("metadata_clobber", [](dataplane::Quirks& q) { q.metadata_clobber = true; });
    add("stale_entry", [](dataplane::Quirks& q) { q.stale_entry = true; });
    add("expiry_off_by_one", [](dataplane::Quirks& q) { q.expiry_off_by_one = true; });
    add("hash_collision_misdirect",
        [](dataplane::Quirks& q) { q.hash_collision_misdirect = 3; });
    return duts;
}

TEST(CampaignEngine, SameSeedSameReportRegardlessOfThreadCount) {
    // The whole point of deterministic sharding: a campaign is a pure
    // function of its config.  Byte-identical JSON, 1 vs 4 workers.
    core::CampaignEngine one(default_config(48, 1));
    core::CampaignEngine four(default_config(48, 4));
    const core::CampaignReport r1 = one.run();
    const core::CampaignReport r4 = four.run();
    EXPECT_GT(r1.packets_injected, 0u);
    EXPECT_FALSE(r1.divergences.empty());
    EXPECT_EQ(r1.to_json(), r4.to_json());
}

TEST(CampaignEngine, DedupCollapsesRepeatedFindings) {
    // The sdnet catalogue trips on many seeds, but the (backend, signature,
    // stage) fingerprint folds them into a handful of records.
    core::CampaignEngine engine(default_config(64, 2));
    const core::CampaignReport report = engine.run();
    ASSERT_FALSE(report.divergences.empty());
    EXPECT_GT(report.findings_total, report.divergences.size());
    EXPECT_GT(report.dedup_ratio(), 1.0);
    std::uint64_t duplicates = 0;
    for (const auto& d : report.divergences) duplicates += d.duplicates;
    EXPECT_EQ(report.findings_total,
              report.divergences.size() + duplicates);
}

TEST(CampaignEngine, MinimizedSeedStillReproduces) {
    core::CampaignEngine engine(default_config(48, 2));
    const core::CampaignReport report = engine.run();
    ASSERT_FALSE(report.divergences.empty());
    for (const auto& d : report.divergences) {
        EXPECT_TRUE(d.minimized_reproduces) << d.fingerprint;
        EXPECT_GE(d.minimized_count, 1u) << d.fingerprint;
        EXPECT_LE(d.minimized_count, 12u) << d.fingerprint;  // spec.count cap
    }
}

TEST(CampaignEngine, ReportCarriesThroughputInputsAndStats) {
    core::CampaignEngine engine(default_config(16, 1));
    const core::CampaignReport report = engine.run();
    EXPECT_EQ(report.base_seed, 7u);
    EXPECT_EQ(report.scenarios, 16u);
    EXPECT_EQ(report.backends, std::vector<std::string>{"sdnet"});
    EXPECT_EQ(report.programs, core::SpecGenerator::default_programs());
    EXPECT_GT(report.packets_injected, 16u * 4u);  // >= count per scenario, x2 devices
    EXPECT_GT(engine.stats().scenarios_per_sec, 0.0);
    EXPECT_GT(engine.stats().packets_per_sec, 0.0);
    // The deterministic report never embeds wall-clock numbers.
    EXPECT_EQ(report.to_json().find("per_sec"), std::string::npos);
}

TEST(CampaignEngine, ScenariosAreAPureFunctionOfTheSeed) {
    const core::SpecGenerator gen;
    for (const std::uint64_t seed : {1ull, 17ull, 923ull}) {
        const core::Scenario a = gen.make(seed);
        const core::Scenario b = gen.make(seed);
        EXPECT_EQ(a.program, b.program);
        EXPECT_EQ(gen.programs()[gen.program_of(seed)], a.program);
        EXPECT_EQ(a.spec.count, b.spec.count);
        EXPECT_EQ(a.config.size(), b.config.size());
        for (std::uint64_t seq = 1; seq <= a.spec.count; ++seq) {
            EXPECT_TRUE(core::instantiate(a.spec.tmpl, seq)
                            .same_bytes(core::instantiate(b.spec.tmpl, seq)));
        }
    }
}

TEST(CampaignEngine, UniformSweepBuildsEachImageOncePerDevice) {
    // 72 seeds draw each of the 18 default programs about four times.  The
    // sweep runs them program by program, so the reference and the DUT
    // build each drawn image once and reset in place for the rest; run in
    // seed order they would rebuild on nearly every scenario (about
    // 2 x 72 x 17/18 builds).
    const core::CampaignConfig config = default_config(72, 1);
    std::set<std::string> drawn;
    const core::SpecGenerator gen;
    for (std::uint64_t i = 0; i < config.scenarios; ++i) {
        drawn.insert(gen.make(config.base_seed + i).program);
    }

    obs::Telemetry::set_enabled(true, false);
    obs::Telemetry::reset();
    core::CampaignEngine engine(config);
    const core::CampaignReport report = engine.run();
    const obs::MetricsSnapshot snap = obs::Metrics::instance().snapshot();
    obs::Telemetry::set_enabled(false, false);
    obs::Telemetry::reset();

    ASSERT_EQ(report.programs.size(), 18u);
    EXPECT_FALSE(report.divergences.empty());
    const std::uint64_t builds =
        snap.counters[static_cast<std::size_t>(obs::Counter::image_builds)];
    EXPECT_LE(builds, 18u * 2u);
    EXPECT_EQ(builds, 2u * drawn.size());
    EXPECT_EQ(snap.counters[static_cast<std::size_t>(obs::Counter::scenarios)],
              72u);
}

TEST(CampaignEngine, UniformSweepMatchesSeedOrderExecution) {
    // The sweep runs its seeds grouped by program; the report must equal
    // the one a single worker produces running every seed in order, with
    // the state quirks (stale entries, expiry, hash misdirection) in the
    // DUT set so leftover per-flow state would show.
    core::CampaignConfig config;
    config.base_seed = 41;
    config.scenarios = 216;
    config.threads = 1;
    config.duts = ten_flag_duts();
    core::CampaignEngine engine(config);
    const core::CampaignReport grouped = engine.run();

    const core::SpecGenerator gen;
    core::CampaignReport in_order;
    in_order.base_seed = config.base_seed;
    in_order.scenarios = config.scenarios;
    in_order.programs = gen.programs();
    in_order.engine = dataplane::engine_name(dataplane::default_engine());
    for (const auto& d : config.duts) in_order.backends.push_back(d.label);
    core::ExecOptions exec;
    exec.batch_size = config.batch_size;
    core::WorkerContext ctx(config.reference_backend, config.duts);
    core::ReportBuilder builder(in_order);
    for (std::uint64_t i = 0; i < config.scenarios; ++i) {
        core::ScenarioOutcome outcome;
        core::execute_scenario(ctx, gen.make(config.base_seed + i), config.duts,
                               exec, outcome, std::string());
        builder.fold(outcome);
    }

    std::set<std::string> kinds;
    for (const auto& d : in_order.divergences) kinds.insert(d.kind);
    EXPECT_TRUE(kinds.count("state")) << in_order.to_string();
    EXPECT_GE(in_order.divergences.size(), 10u);
    EXPECT_EQ(grouped.to_json(), in_order.to_json());
}

TEST(CampaignEngine, UnknownProgramOrBackendIsAnError) {
    EXPECT_THROW(core::SpecGenerator({"no_such_program"}), std::invalid_argument);
    core::CampaignConfig config = default_config(1, 1);
    config.duts = {core::BackendSpec{"no_such_backend", std::nullopt, ""}};
    core::CampaignEngine engine(config);
    EXPECT_THROW(engine.run(), std::invalid_argument);
}

TEST(CampaignEngine, RegisteredBackendsJoinTheSweepByDefault) {
    // Third-party backends become DUTs without touching the engine: an
    // empty dut list sweeps everything in the registry but the reference.
    target::register_backend(
        "shifty_sim", [](std::optional<dataplane::Quirks> quirks) {
            target::DeviceConfig cfg;
            cfg.backend = "shifty_sim";
            if (quirks) {
                cfg.quirks = *quirks;
            } else {
                cfg.quirks.shift_miscompile = true;
            }
            return target::make_reference_device(std::move(cfg));
        });

    core::CampaignConfig config;
    config.base_seed = 7;
    config.scenarios = 12;
    config.threads = 2;
    config.programs = {"shift_mangler"};
    core::CampaignEngine engine(config);
    const core::CampaignReport report = engine.run();

    EXPECT_NE(std::find(report.backends.begin(), report.backends.end(),
                        "shifty_sim"),
              report.backends.end());
    bool found = false;
    for (const auto& d : report.divergences) {
        if (d.backend == "shifty_sim") {
            found = true;
            EXPECT_NE(d.quirk_signature.find("shift_miscompile"),
                      std::string::npos);
        }
    }
    EXPECT_TRUE(found) << report.to_string();
}

}  // namespace
