// CampaignEngine contract tests: determinism under sharding, dedup,
// minimization, and registry-driven backend sweeps.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <stdexcept>

#include "core/campaign.h"
#include "core/generator.h"
#include "core/scenario_exec.h"
#include "core/specgen.h"
#include "core/tools.h"
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

TEST(CampaignEngine, DiffRunsNamesEachFirstDifferenceInCausalOrder) {
    // A reference run that touches every check diff_runs makes.
    core::DeviceRun ref;
    ref.config_ok = {true, false};
    ref.config_wire_fail = {false, false};
    ref.snapshot.tables = {control::TableStatus{"ingress.fwd", 5, 2, 3, 16}};
    ref.snapshot.externs = {
        dataplane::ExternInfo{"ingress.policer", "meter", 4, 0xabc, 1}};
    ref.taps.resize(2);
    for (std::uint32_t seq : {1u, 2u}) {
        packet::Packet pkt = core::scenario::ipv4_udp_packet();
        core::TestPacketGenerator::write_stamp(pkt, seq, 0);
        ref.observed.push_back({seq, std::move(pkt)});
    }
    ref.snapshot.stages.parser_in = 2;
    ref.snapshot.stages.forwarded = 2;
    ASSERT_FALSE(core::diff_runs(ref, ref).has_value());

    // One edit per check, in diff_runs' causal order, each with the finding
    // it alone produces: kind, detail and 1-based packet (0 = none).
    struct Case {
        const char* kind;
        const char* detail;
        std::uint64_t packet;
        std::function<void(core::DeviceRun&)> edit;
    };
    const std::vector<Case> cases = {
        {"mgmt", "config op #0 lost on the management wire: dut=timed-out golden=ok",
         0, [](core::DeviceRun& d) {
             d.config_ok[0] = false;
             d.config_wire_fail[0] = true;
         }},
        {"config", "config op #1: dut=ok golden=rejected", 0,
         [](core::DeviceRun& d) { d.config_ok[1] = true; }},
        {"config", "table ingress.fwd shape: dut entries=2/16 golden entries=3/16", 0,
         [](core::DeviceRun& d) { d.snapshot.tables[0].entries = 2; }},
        {"state",
         "meter ingress.policer state hash: dut=0000000000000abd "
         "golden=0000000000000abc",
         0, [](core::DeviceRun& d) { d.snapshot.externs[0].state_hash = 0xabd; }},
        {"state", "meter ingress.policer unconfigured cells: dut=0 golden=1", 0,
         [](core::DeviceRun& d) { d.snapshot.externs[0].unconfigured_meters = 0; }},
        {"internal", "packet #1: parser verdict dut=reject golden=accept", 1,
         [](core::DeviceRun& d) { d.taps[0].verdict = dataplane::ParserVerdict::reject; }},
        {"internal", "packet #1: state differs at the parser tap", 1,
         [](core::DeviceRun& d) { d.taps[0].stage_hash[0] = 1; }},
        {"internal", "packet #1: state differs at the ingress tap", 1,
         [](core::DeviceRun& d) { d.taps[0].stage_hash[1] = 1; }},
        {"internal", "packet #1: state differs at the egress tap", 1,
         [](core::DeviceRun& d) { d.taps[0].stage_hash[2] = 1; }},
        {"internal", "packet #1: disposition dut=dropped(ingress) golden=forwarded", 1,
         [](core::DeviceRun& d) {
             d.taps[0].disposition = dataplane::Disposition::dropped_ingress;
         }},
        {"internal", "packet #1: egress port dut=3 golden=0", 1,
         [](core::DeviceRun& d) { d.taps[0].egress_port = 3; }},
        {"output", "output #0 egress port: dut=3 golden=1", 1,
         [](core::DeviceRun& d) { d.observed[0].port = 3; }},
        {"output", "output #0 bytes differ on port 1 (106B vs 106B)", 1,
         [](core::DeviceRun& d) { d.observed[0].pkt.set_byte(0, 0xff); }},
        {"output", "output stream length: dut=1 golden=2", 2,
         [](core::DeviceRun& d) { d.observed.pop_back(); }},
        {"snapshot", "stage counter forwarded: dut=1 golden=2", 0,
         [](core::DeviceRun& d) { d.snapshot.stages.forwarded = 1; }},
        {"snapshot", "stage counter misdirected: dut=1 golden=0", 0,
         [](core::DeviceRun& d) { d.snapshot.misdirected = 1; }},
        {"snapshot", "table ingress.fwd: dut hits=4 misses=2, golden hits=5 misses=2",
         0, [](core::DeviceRun& d) { d.snapshot.tables[0].hits = 4; }},
    };
    for (const Case& c : cases) {
        core::DeviceRun dut = ref;
        c.edit(dut);
        const std::optional<core::RawDivergence> raw = core::diff_runs(dut, ref);
        ASSERT_TRUE(raw.has_value()) << c.detail;
        EXPECT_EQ(raw->kind, c.kind);
        EXPECT_EQ(raw->detail, c.detail);
        EXPECT_EQ(raw->first_diverging_packet, c.packet) << c.detail;
    }
    // Stacking the edits from the last check to the first, each new edit
    // outranks every difference already there.
    core::DeviceRun dut = ref;
    for (std::size_t k = cases.size(); k-- > 0;) {
        cases[k].edit(dut);
        const std::optional<core::RawDivergence> raw = core::diff_runs(dut, ref);
        ASSERT_TRUE(raw.has_value());
        EXPECT_EQ(raw->detail, cases[k].detail);
    }
}

TEST(CampaignEngine, UnknownProgramOrBackendIsAnError) {
    EXPECT_THROW(core::SpecGenerator({"no_such_program"}), std::invalid_argument);
    core::CampaignConfig config = default_config(1, 1);
    config.duts = {core::BackendSpec{"no_such_backend", std::nullopt, ""}};
    core::CampaignEngine engine(config);
    EXPECT_THROW(engine.run(), std::invalid_argument);
    core::CampaignConfig reference = default_config(1, 1);
    reference.reference_backend = "no_such_backend";
    reference.concolic = true;
    EXPECT_THROW(core::CampaignEngine(reference).run(), std::invalid_argument);
}

TEST(CampaignEngine, SweepSetupDerivesModeDutsAndHeaderOnce) {
    core::CampaignConfig config = default_config(8, 1);
    config.programs = {"passthrough", "reject_filter"};
    config.batch_size = 3;
    config.minimize = false;
    {
        const core::SweepSetup s = core::prepare_sweep(config);
        EXPECT_EQ(s.mode, core::SweepMode::uniform);
        EXPECT_FALSE(s.exec.coverage);
        EXPECT_FALSE(s.exec.minimize);
        EXPECT_EQ(s.exec.batch_size, 3u);
        EXPECT_FALSE(s.exec.mgmt_plan.enabled());
        EXPECT_EQ(s.gen.programs(), config.programs);
        EXPECT_EQ(s.report.programs, config.programs);
        EXPECT_EQ(s.report.scenarios, 8u);
        EXPECT_FALSE(s.report.coverage_enabled);
        EXPECT_FALSE(s.report.mgmt_enabled);
        EXPECT_TRUE(s.report.coverage_edges_dut.empty());
    }
    // Mutation and concolic synthesis each imply coverage; the config that
    // asked for them is left as it was.
    for (const bool concolic : {false, true}) {
        core::CampaignConfig guided = config;
        guided.mutate = !concolic;
        guided.concolic = concolic;
        const core::SweepSetup s = core::prepare_sweep(guided);
        EXPECT_EQ(s.mode, core::SweepMode::guided);
        EXPECT_TRUE(s.exec.coverage);
        EXPECT_FALSE(guided.coverage);
        EXPECT_TRUE(s.report.coverage_enabled);
        EXPECT_EQ(s.report.concolic_enabled, concolic);
        EXPECT_EQ(s.report.coverage_map_slots, coverage::CoverageMap::kSlots);
        EXPECT_EQ(s.report.coverage_edges_dut.size(), 1u);
    }
    // A recipe replays one scenario, with coverage only when asked for.
    core::CampaignConfig replay = config;
    replay.mutation_recipe = "#anything";
    replay.mgmt_fault_plan = "seed=3,drop=0.5";
    {
        const core::SweepSetup s = core::prepare_sweep(replay);
        EXPECT_EQ(s.mode, core::SweepMode::replay);
        EXPECT_FALSE(s.exec.coverage);
        EXPECT_EQ(s.report.scenarios, 1u);
        EXPECT_TRUE(s.exec.mgmt_plan.enabled());
        EXPECT_EQ(s.exec.mgmt_plan.seed, 3u);
        EXPECT_TRUE(s.report.mgmt_enabled);
    }
    replay.coverage = true;
    EXPECT_TRUE(core::prepare_sweep(replay).exec.coverage);

    // An empty DUT list is every registered backend but the reference, and
    // an empty label is the backend name.
    core::CampaignConfig open = config;
    open.duts.clear();
    const core::SweepSetup all = core::prepare_sweep(open);
    std::vector<std::string> expected;
    for (const auto& name : target::registered_backends()) {
        if (name != open.reference_backend) expected.push_back(name);
    }
    EXPECT_EQ(all.report.backends, expected);
    ASSERT_EQ(all.duts.size(), expected.size());
    for (const auto& d : all.duts) {
        EXPECT_EQ(d.label, d.name);
        EXPECT_FALSE(d.quirks.has_value());
    }
    open.duts = {core::BackendSpec{"sdnet", std::nullopt, ""}};
    EXPECT_EQ(core::prepare_sweep(open).duts[0].label, "sdnet");
}

TEST(CampaignEngine, ReplayIsHeadedByItsRecipeSeedAndCountsOnlyMutants) {
    // A replay's findings carry the recipe's seed, so the report is headed
    // with it rather than the config's base seed.  A catalogue recipe
    // without ops is the fresh scenario: replaying it draws no mutant.
    const struct {
        const char* recipe;
        std::uint64_t mutated;
    } cases[] = {{"reject_filter#5", 0}, {"reject_filter#5|byte:0:1", 1}};
    for (const auto& c : cases) {
        SCOPED_TRACE(c.recipe);
        core::CampaignConfig config = default_config(1, 1);
        config.programs = {"reject_filter"};
        config.mutation_recipe = c.recipe;
        const core::CampaignReport report = core::CampaignEngine(config).run();
        EXPECT_EQ(report.scenarios, 1u);
        EXPECT_EQ(report.base_seed, 5u);
        EXPECT_EQ(report.scenarios_mutated, c.mutated);
        EXPECT_EQ(report.scenarios_concolic, 0u);
        EXPECT_EQ(report.to_string().rfind("campaign: 1 scenario(s) from seed 5,", 0),
                  0u)
            << report.to_string();
        ASSERT_FALSE(report.divergences.empty());
        for (const auto& d : report.divergences) EXPECT_EQ(d.seed, 5u);
    }
}

TEST(CampaignEngine, MalformedMgmtFaultPlanIsRefusedBeforeAnyScenario) {
    obs::Telemetry::set_enabled(true, false);
    obs::Telemetry::reset();
    for (const char* plan : {"drop", "drop=0.5,bogus=1", "seed=x"}) {
        for (const bool guided : {false, true}) {
            core::CampaignConfig config = default_config(8, 2);
            config.mgmt_fault_plan = plan;
            config.mutate = guided;
            core::CampaignEngine engine(config);
            EXPECT_THROW(engine.run(), std::invalid_argument) << plan;
        }
    }
    const obs::MetricsSnapshot snap = obs::Metrics::instance().snapshot();
    obs::Telemetry::set_enabled(false, false);
    obs::Telemetry::reset();
    EXPECT_EQ(snap.counters[static_cast<std::size_t>(obs::Counter::scenarios)], 0u);
    EXPECT_EQ(snap.counters[static_cast<std::size_t>(obs::Counter::image_builds)],
              0u);
}

TEST(CampaignEngine, RegisteredBackendsJoinTheSweepByDefault) {
    // Third-party backends become DUTs without touching the engine: an
    // empty dut list sweeps everything in the registry but the reference.
    target::DeviceConfig shifty;
    shifty.backend = "shifty_sim";
    shifty.quirks.shift_miscompile = true;
    target::register_backend(shifty);

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
