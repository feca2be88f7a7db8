// Coverage subsystem contracts: map determinism, zero behavioural
// perturbation, scheduler energy monotonicity, guided-vs-uniform budget
// efficiency (the acceptance bar: the guided scheduler discovers all seven
// quirk fingerprints within the uniform scheduler's scenario budget), and
// soak-mode corpus growth with deterministic file naming.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/corpus.h"
#include "core/generator.h"
#include "core/scenario_exec.h"
#include "core/specgen.h"
#include "coverage/coverage.h"
#include "coverage/scheduler.h"
#include "quirk_fixture.h"
#include "target/device.h"
#include "util/random.h"

namespace {

using namespace ndb;
using ndb_test::FlagFixture;
using ndb_test::budget_to_all_seven;
using ndb_test::seven_flag_fixture;

// Runs one seeded catalogue scenario on a fresh reference device with
// coverage instrumentation attached; returns the filled map.
coverage::CoverageMap run_scenario_coverage(std::uint64_t seed,
                                            bool digests = false,
                                            std::vector<dataplane::TapDigest>*
                                                digests_out = nullptr) {
    const core::SpecGenerator gen;
    const core::Scenario sc = gen.make(seed);

    coverage::CoverageMap map;
    auto dev = target::make_device("reference");
    dev->set_coverage(&map);  // before load(): must survive the image swap
    EXPECT_TRUE(dev->load(*sc.compiled));
    dev->apply(sc.config);
    if (digests) dev->set_digests_enabled(true);

    core::TestPacketGenerator pgen(sc.spec);
    for (std::uint64_t seq = 1; seq <= sc.spec.count; ++seq) {
        dev->inject(pgen.make_packet(seq, 1'000'000 + (seq - 1) * 672));
    }
    dev->flush();
    if (digests_out) *digests_out = dev->take_digest_records();
    return map;
}

TEST(CoverageMap, SlotAccountingAndMerge) {
    coverage::CoverageMap a;
    EXPECT_EQ(a.edges_covered(), 0u);
    EXPECT_EQ(a.total_hits(), 0u);

    a.record(coverage::Site::table, 3, 1);
    a.record(coverage::Site::table, 3, 1);  // same slot: one edge, two hits
    a.record(coverage::Site::action, 3);    // site kind disambiguates
    EXPECT_EQ(a.edges_covered(), 2u);
    EXPECT_EQ(a.total_hits(), 3u);

    coverage::CoverageMap fresh;
    fresh.record(coverage::Site::table, 3, 1);   // already known to `a`
    fresh.record(coverage::Site::branch, 0, 0);  // new
    EXPECT_EQ(a.merge_new_from(fresh.hits()), 1u);
    EXPECT_EQ(a.edges_covered(), 3u);
    EXPECT_EQ(a.merge_new_from(fresh.hits()), 0u);  // second merge: nothing new

    a.clear();
    EXPECT_EQ(a.edges_covered(), 0u);
    EXPECT_EQ(a, coverage::CoverageMap{});

    // The lit-slot list: every lit slot once, in slot order, with its count.
    util::Rng rng(0x5107);
    coverage::CoverageMap run;
    for (int i = 0; i < 300; ++i) {
        run.hit(static_cast<std::uint32_t>(rng.next_below(coverage::CoverageMap::kSlots)));
    }
    const std::vector<coverage::SlotHits> lit = run.hits();
    ASSERT_EQ(lit.size(), run.edges_covered());
    for (std::size_t i = 0; i < lit.size(); ++i) {
        if (i > 0) {
            EXPECT_LT(lit[i - 1].slot, lit[i].slot);
        }
        EXPECT_GT(lit[i].count, 0u);
        EXPECT_EQ(lit[i].count, run.count(lit[i].slot));
    }

    // Merging the list equals the dense slot-by-slot merge, counts and
    // new-slot delta alike, into a map that already holds some of them.
    coverage::CoverageMap sparse;
    for (int i = 0; i < 200; ++i) {
        sparse.hit(static_cast<std::uint32_t>(rng.next_below(coverage::CoverageMap::kSlots)));
    }
    std::vector<std::uint32_t> dense(coverage::CoverageMap::kSlots);
    for (std::size_t s = 0; s < dense.size(); ++s) dense[s] = sparse.count(s);
    std::size_t dense_new = 0;
    for (std::size_t s = 0; s < dense.size(); ++s) {
        if (run.count(s) == 0) continue;
        if (dense[s] == 0) ++dense_new;
        dense[s] += run.count(s);
    }
    EXPECT_EQ(sparse.merge_new_from(lit), dense_new);
    EXPECT_GT(dense_new, 0u);
    for (std::size_t s = 0; s < dense.size(); ++s) {
        EXPECT_EQ(sparse.count(s), dense[s]) << "slot " << s;
    }

    // take_hits_into() hands over the same list, in place of what the
    // buffer held, and leaves an empty map.
    std::vector<coverage::SlotHits> taken(3, coverage::SlotHits{1, 1});
    run.take_hits_into(taken);
    EXPECT_EQ(taken, lit);
    EXPECT_EQ(run, coverage::CoverageMap{});
    EXPECT_TRUE(run.hits().empty());
}

TEST(CoverageMap, SameSeedProducesTheSameMap) {
    for (const std::uint64_t seed : {1ull, 9ull, 23ull}) {
        const coverage::CoverageMap first = run_scenario_coverage(seed);
        const coverage::CoverageMap second = run_scenario_coverage(seed);
        EXPECT_GT(first.edges_covered(), 0u) << "seed " << seed;
        EXPECT_EQ(first, second) << "seed " << seed;
    }
}

TEST(CoverageMap, InstrumentationDoesNotPerturbDigests) {
    // Coverage on must be execution-invisible: for the same scenario, the
    // per-packet tap digests (and therefore campaign detection) are
    // bit-identical whether or not the map is attached.
    for (const std::uint64_t seed : {1ull, 7ull, 15ull}) {
        const core::SpecGenerator gen;
        const core::Scenario sc = gen.make(seed);
        core::TestPacketGenerator pgen(sc.spec);

        std::vector<dataplane::TapDigest> with_cov;
        run_scenario_coverage(seed, /*digests=*/true, &with_cov);

        auto plain = target::make_device("reference");
        ASSERT_TRUE(plain->load(*sc.compiled));
        plain->apply(sc.config);
        plain->set_digests_enabled(true);
        for (std::uint64_t seq = 1; seq <= sc.spec.count; ++seq) {
            plain->inject(pgen.make_packet(seq, 1'000'000 + (seq - 1) * 672));
        }
        plain->flush();
        const std::vector<dataplane::TapDigest> without_cov =
            plain->take_digest_records();

        ASSERT_EQ(with_cov.size(), without_cov.size()) << "seed " << seed;
        for (std::size_t i = 0; i < with_cov.size(); ++i) {
            EXPECT_EQ(with_cov[i], without_cov[i]) << "seed " << seed
                                                   << " packet " << i;
        }
    }
}

TEST(CorpusScheduler, EnergyMonotoneInCoverageDelta) {
    // Two identical schedulers, one rewarded harder on arm 0: the harder
    // reward must never translate into a smaller share or round count.
    coverage::CorpusScheduler small(4), big(4), idle(4);
    small.reward(0, 0.5);
    big.reward(0, 4.0);
    EXPECT_GT(big.share(0), small.share(0));
    EXPECT_GT(small.share(0), idle.share(0));

    const auto plan_small = small.plan_round(200);
    const auto plan_big = big.plan_round(200);
    const auto plan_idle = idle.plan_round(200);
    EXPECT_GE(plan_big[0], plan_small[0]);
    EXPECT_GE(plan_small[0], plan_idle[0]);

    // Accumulated gains keep growing the share, monotonically.
    double last = idle.share(1);
    for (int i = 0; i < 5; ++i) {
        idle.reward(1, 1.0);
        EXPECT_GE(idle.share(1), last);
        last = idle.share(1);
    }
}

TEST(CorpusScheduler, PlansCoverTheBudgetWithExplorationFloor) {
    coverage::CorpusScheduler sched(7);
    sched.reward(2, 8.0);  // heavily skewed
    for (const std::uint64_t budget : {0ull, 1ull, 3ull, 7ull, 20ull, 113ull}) {
        const auto plan = sched.plan_round(budget);
        ASSERT_EQ(plan.size(), 7u);
        std::uint64_t total = 0;
        for (const auto p : plan) total += p;
        EXPECT_EQ(total, budget) << "budget " << budget;
        if (budget >= 7) {
            // Exploration floor: even starved programs keep probing.
            for (std::size_t arm = 0; arm < plan.size(); ++arm) {
                EXPECT_GE(plan[arm], 1u) << "budget " << budget << " arm " << arm;
            }
        }
    }

    // A fresh scheduler splits evenly (within rounding).
    const auto uniform = coverage::CorpusScheduler(7).plan_round(21);
    for (const auto p : uniform) EXPECT_EQ(p, 3u);
}

TEST(SpecGenerator, MakeForMatchesSingleProgramReplay) {
    // The guided scheduler's (program, seed) pairs must replay through the
    // ordinary single-program corpus path: make_for on the full catalogue
    // equals make() on a generator restricted to that program.
    const core::SpecGenerator full;
    for (const std::uint64_t seed : {3ull, 11ull, 42ull}) {
        for (const std::size_t idx : {std::size_t{0}, full.programs().size() / 2,
                                      full.programs().size() - 1}) {
            const core::Scenario forced = full.make_for(idx, seed);
            const core::SpecGenerator single({full.programs()[idx]});
            const core::Scenario replay = single.make(seed);
            EXPECT_EQ(forced.program, replay.program);
            EXPECT_EQ(forced.spec.count, replay.spec.count);
            EXPECT_EQ(forced.spec.inject_port, replay.spec.inject_port);
            ASSERT_EQ(forced.config.size(), replay.config.size());
            for (std::uint64_t seq = 1; seq <= forced.spec.count; ++seq) {
                EXPECT_TRUE(core::instantiate(forced.spec.tmpl, seq)
                                .same_bytes(core::instantiate(replay.spec.tmpl, seq)));
            }
        }
    }
    EXPECT_THROW(full.make_for(full.programs().size(), 1), std::invalid_argument);
}

core::CampaignConfig guided_config(std::uint64_t scenarios, int threads) {
    core::CampaignConfig config;
    config.base_seed = 7;
    config.scenarios = scenarios;
    config.threads = threads;
    config.coverage = true;
    config.duts = {core::BackendSpec{"sdnet", std::nullopt, "sdnet"}};
    return config;
}

TEST(GuidedCampaign, ReportByteIdenticalAcrossThreadCounts) {
    core::CampaignEngine one(guided_config(60, 1));
    core::CampaignEngine four(guided_config(60, 4));
    const core::CampaignReport r1 = one.run();
    const core::CampaignReport r4 = four.run();
    EXPECT_TRUE(r1.coverage_enabled);
    EXPECT_GT(r1.coverage_edges, 0u);
    EXPECT_FALSE(r1.coverage_series.empty());
    EXPECT_FALSE(r1.divergences.empty());
    EXPECT_EQ(r1.to_json(), r4.to_json());

    // The series is cumulative and ends at the final edge count.
    std::uint64_t last = 0;
    for (const auto& point : r1.coverage_series) {
        EXPECT_GE(point.edges, last);
        last = point.edges;
    }
    EXPECT_EQ(last, r1.coverage_edges);
    EXPECT_EQ(r1.coverage_series.back().scenarios, r1.scenarios);
}

TEST(GuidedCampaign, WorkerCoverageDoesNotLeakAcrossScenarios) {
    // Every detection run records into the worker's one map; what scenario
    // A lit must not show up in scenario B's lists on the same worker.
    const core::SpecGenerator gen({"nat_gateway", "l2_switch"});
    const core::Scenario a = gen.make_for(0, 21);
    const core::Scenario b = gen.make_for(1, 22);
    dataplane::Quirks stale;
    stale.stale_entry = true;
    const std::vector<core::BackendSpec> duts = {
        {"sdnet", std::nullopt, "sdnet"}, {"sdnet", stale, "sdnet_stale"}};
    core::ExecOptions options;
    options.coverage = true;

    core::WorkerContext shared("reference", duts);
    core::ScenarioOutcome first;
    core::ScenarioOutcome second;
    core::execute_scenario(shared, a, duts, options, first, "");
    core::execute_scenario(shared, b, duts, options, second, "");
    EXPECT_FALSE(first.coverage.empty());
    EXPECT_EQ(shared.coverage, coverage::CoverageMap{});

    core::WorkerContext fresh("reference", duts);
    core::ScenarioOutcome alone;
    core::execute_scenario(fresh, b, duts, options, alone, "");
    EXPECT_FALSE(alone.coverage.empty());
    EXPECT_EQ(second.coverage, alone.coverage);
    ASSERT_EQ(second.dut_coverage.size(), duts.size());
    ASSERT_EQ(alone.dut_coverage.size(), duts.size());
    for (std::size_t d = 0; d < duts.size(); ++d) {
        EXPECT_FALSE(alone.dut_coverage[d].empty()) << duts[d].label;
        EXPECT_EQ(second.dut_coverage[d], alone.dut_coverage[d]) << duts[d].label;
    }
}

// The seven-flag acceptance sweep (tests/quirk_fixture.h): one
// single-quirk DUT per Quirks flag, each paired with the catalogue
// program that exercises it.
TEST(GuidedCampaign, FindsAllSevenFingerprintsWithinUniformBudget) {
    const FlagFixture fx = seven_flag_fixture();

    core::CampaignConfig uniform;
    uniform.base_seed = 1;
    uniform.scenarios = 128;
    uniform.threads = 2;
    ndb_test::apply_fixture(fx, uniform);
    core::CampaignEngine uniform_engine(uniform);
    const core::CampaignReport uniform_report = uniform_engine.run();

    const std::uint64_t uniform_budget =
        budget_to_all_seven(uniform_report, fx);
    ASSERT_GT(uniform_budget, 0u)
        << "uniform sweep never found all seven flags:\n"
        << uniform_report.to_string();

    // The acceptance bar: guided, given exactly the budget uniform needed,
    // must also surface all seven quirk fingerprints.
    core::CampaignConfig guided = uniform;
    guided.coverage = true;
    guided.scenarios = uniform_budget;
    core::CampaignEngine guided_engine(guided);
    const core::CampaignReport guided_report = guided_engine.run();

    std::set<std::string> found;
    for (const auto& d : guided_report.divergences) found.insert(d.backend);
    EXPECT_EQ(found.size(), fx.duts.size())
        << "guided scheduler missed flags within the uniform budget of "
        << uniform_budget << " scenarios:\n"
        << guided_report.to_string();

    // And it should not be slower to full discovery than uniform was.
    const std::uint64_t guided_budget = budget_to_all_seven(guided_report, fx);
    ASSERT_GT(guided_budget, 0u);
    EXPECT_LE(guided_budget, uniform_budget);
}

TEST(Soak, DeterministicCorpusGrowthAndReplay) {
    // A guided run against the stock sdnet backend; its fingerprints are
    // new relative to an empty corpus directory.
    core::CampaignEngine engine(guided_config(64, 2));
    const core::CampaignReport report = engine.run();
    ASSERT_FALSE(report.divergences.empty());

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "ndb_soak_corpus_test";
    std::filesystem::remove_all(dir);

    const core::SoakResult first =
        core::append_unique_corpus_entries(report, dir.string());
    EXPECT_EQ(first.written.size(), report.divergences.size());
    EXPECT_EQ(first.skipped_known, 0u);

    // Names are a pure function of the fingerprint.
    std::vector<std::string> expected;
    for (const auto& d : report.divergences) {
        expected.push_back(core::soak_corpus_filename(d));
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(first.written, expected);

    // Idempotent: a second soak over the same findings writes nothing.
    const core::SoakResult second =
        core::append_unique_corpus_entries(report, dir.string());
    EXPECT_TRUE(second.written.empty());
    EXPECT_EQ(second.skipped_known, report.divergences.size());

    // Every written recipe reads back cleanly and replays: one scenario,
    // the recorded program and seed, the recorded backend under its
    // catalogue quirks -- and the replay reproduces the recorded
    // fingerprint, exactly the contract corpus_replay_test enforces for
    // committed entries.
    const core::CorpusDir written = core::read_corpus_dir(dir.string());
    EXPECT_TRUE(written.diagnostics.empty())
        << ::testing::PrintToString(written.diagnostics);
    ASSERT_EQ(written.records.size(), first.written.size());
    for (const core::CorpusRecord& rec : written.records) {
        SCOPED_TRACE(rec.file);
        core::CampaignConfig replay;
        replay.base_seed = rec.recipe.seed();
        replay.scenarios = 1;
        replay.threads = 1;
        replay.programs = {rec.recipe.program()};
        replay.duts = {core::BackendSpec{rec.backend, std::nullopt, "dut"}};
        core::CampaignEngine replayer(replay);
        const core::CampaignReport rr = replayer.run();
        ASSERT_EQ(rr.divergences.size(), 1u) << rr.to_string();
        EXPECT_EQ(rr.divergences[0].fingerprint,
                  "dut|" + rec.quirks + "|" + rec.stage);
        EXPECT_TRUE(rr.divergences[0].minimized_reproduces);
    }

    std::filesystem::remove_all(dir);
}

}  // namespace
