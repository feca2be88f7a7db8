// Mutation-engine contracts: recipe text round-trips, corpus loading and
// dedup, deterministic derive/apply, splice semantics, byte-identical
// mutate-mode reports across thread counts, recipe-based replay of every
// mutated divergence, soak recipe lines, and the acceptance sweep: the
// mutation-guided campaign discovers all seven quirk fingerprints within
// the fresh-seed guided budget with DUT coverage visibly contributing.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/corpus.h"
#include "core/mutate.h"
#include "core/specgen.h"
#include "core/testspec.h"
#include "quirk_fixture.h"

#ifndef NDB_CORPUS_DIR
#error "NDB_CORPUS_DIR must point at tests/corpus"
#endif

namespace {

using namespace ndb;

TEST(MutationRecipe, EncodeParseRoundTrip) {
    core::MutationRecipe recipe;
    recipe.program = "reject_filter";
    recipe.parent_seed = 42;
    recipe.ops = {
        {core::MutationOp::Kind::field_flip, 3, 0xdeadbeefull},
        {core::MutationOp::Kind::field_boundary, 1, 2},
        {core::MutationOp::Kind::packet_byte, 17, 255},
        {core::MutationOp::Kind::config_drop, 2, 0},
        {core::MutationOp::Kind::config_dup, 0, 4},
        {core::MutationOp::Kind::config_swap, 1, 3},
        {core::MutationOp::Kind::splice, 2, 977},
    };

    const std::string text = recipe.encode();
    EXPECT_EQ(text.substr(0, text.find('|')), "reject_filter#42");

    const auto parsed = core::MutationRecipe::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(parsed->program, recipe.program);
    EXPECT_EQ(parsed->parent_seed, recipe.parent_seed);
    ASSERT_EQ(parsed->ops.size(), recipe.ops.size());
    for (std::size_t i = 0; i < recipe.ops.size(); ++i) {
        EXPECT_EQ(parsed->ops[i].kind, recipe.ops[i].kind) << "op " << i;
        EXPECT_EQ(parsed->ops[i].a, recipe.ops[i].a) << "op " << i;
        EXPECT_EQ(parsed->ops[i].b, recipe.ops[i].b) << "op " << i;
    }
    EXPECT_EQ(parsed->encode(), text);

    // Junk must be rejected, not half-parsed.
    EXPECT_FALSE(core::MutationRecipe::parse(""));
    EXPECT_FALSE(core::MutationRecipe::parse("no_seed_marker"));
    EXPECT_FALSE(core::MutationRecipe::parse("prog#notanumber"));
    EXPECT_FALSE(core::MutationRecipe::parse("prog#1|unknown_op:1:2"));
    EXPECT_FALSE(core::MutationRecipe::parse("prog#1|flip:abc:2"));
    EXPECT_FALSE(core::MutationRecipe::parse("#1|flip:1:2"));
    // A truncated op (missing second operand) must fail, not replay a
    // different mutation with b=0.
    EXPECT_FALSE(core::MutationRecipe::parse("prog#1|flip:1"));
    EXPECT_FALSE(core::MutationRecipe::parse("prog#1|bound:13289271728200100208"));
    // Overflowing operands must fail too, not wrap mod 2^64 onto a
    // different mutation.
    EXPECT_FALSE(core::MutationRecipe::parse("prog#1|byte:99999999999999999999999:1"));
    EXPECT_FALSE(core::MutationRecipe::parse("prog#99999999999999999999999|byte:1:1"));
    // 2^64-1 itself is the largest legal operand.
    EXPECT_TRUE(core::MutationRecipe::parse("prog#1|byte:18446744073709551615:1"));
    EXPECT_FALSE(core::MutationRecipe::parse("prog#1|byte:18446744073709551616:1"));
}

TEST(ScenarioCorpus, AddDedupAndLoadDir) {
    core::ScenarioCorpus corpus;
    EXPECT_TRUE(corpus.add("reject_filter", 1));
    EXPECT_FALSE(corpus.add("reject_filter", 1));  // identical triple
    EXPECT_TRUE(corpus.add("reject_filter", 1, "reject_filter#1|byte:3:7"));
    EXPECT_TRUE(corpus.add("deep_parser", 9));
    EXPECT_EQ(corpus.size(), 3u);
    EXPECT_EQ(corpus.entries("reject_filter").size(), 2u);
    EXPECT_EQ(corpus.entries("deep_parser").size(), 1u);
    EXPECT_TRUE(corpus.entries("unknown").empty());

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "ndb_mutate_corpus_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto write = [&dir](const char* name, const std::string& body) {
        std::ofstream out(dir / name);
        out << body;
    };
    write("a_fresh.corpus", "# c\nseed=5\nprogram=reject_filter\nbackend=sdnet\n");
    write("b_mutant.corpus",
          "seed=5\nprogram=reject_filter\nmutate=reject_filter#5|byte:2:9\n");
    write("c_other.corpus", "seed=3\nprogram=deep_parser\n");
    write("d_badrecipe.corpus", "seed=4\nprogram=reject_filter\nmutate=junk\n");
    // Recipe naming a different program than the entry: inconsistent file,
    // must be skipped or a worker would throw at apply() time.
    write("e_mismatch.corpus",
          "seed=6\nprogram=reject_filter\nmutate=deep_parser#6|byte:1:1\n");
    // Damaged seed lines (overflow, trailing junk) must skip the entry,
    // not load a different parent seed.
    write("f_badseed.corpus",
          "seed=18446744073709551616\nprogram=reject_filter\n");
    write("g_junkseed.corpus", "seed=7junk\nprogram=reject_filter\n");
    write("ignored.txt", "seed=9\nprogram=reject_filter\n");

    core::ScenarioCorpus loaded;
    // deep_parser filtered out: this campaign only fuzzes reject_filter.
    EXPECT_EQ(loaded.load_dir(dir.string(), {"reject_filter"}), 2u);
    ASSERT_EQ(loaded.entries("reject_filter").size(), 2u);
    EXPECT_TRUE(loaded.entries("reject_filter")[0].recipe.empty());
    EXPECT_EQ(loaded.entries("reject_filter")[1].recipe,
              "reject_filter#5|byte:2:9");
    EXPECT_TRUE(loaded.entries("deep_parser").empty());

    // Missing directory is not an error.
    core::ScenarioCorpus none;
    EXPECT_EQ(none.load_dir((dir / "nope").string(), {"reject_filter"}), 0u);

    std::filesystem::remove_all(dir);
}

TEST(ConcolicRecipe, EncodeParseRoundTripAndStrictRejection) {
    core::ConcolicRecipe recipe;
    recipe.program = "deep_parser";
    recipe.slot = 2044;
    recipe.ingress_port = 3;
    recipe.packet = {0x88, 0x47, 0x00, 0x01};
    recipe.defaults.push_back({"label_fib", "pop_forward", {{0x01, 0xff}}});
    recipe.defaults.push_back({"other", "NoAction", {}});

    const std::string text = recipe.encode();
    const auto parsed = core::ConcolicRecipe::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(parsed->program, recipe.program);
    EXPECT_EQ(parsed->slot, recipe.slot);
    EXPECT_EQ(parsed->ingress_port, recipe.ingress_port);
    EXPECT_EQ(parsed->packet, recipe.packet);
    ASSERT_EQ(parsed->defaults.size(), 2u);
    EXPECT_EQ(parsed->defaults[0].args, recipe.defaults[0].args);
    EXPECT_EQ(parsed->encode(), text);

    // A mutation recipe never parses as concolic and vice versa: the two
    // grammars have different head separators.
    EXPECT_FALSE(core::ConcolicRecipe::parse("prog#1|byte:3:7"));
    EXPECT_FALSE(core::MutationRecipe::parse(text));

    // Every structural defect rejects the whole text.
    EXPECT_FALSE(core::ConcolicRecipe::parse(""));
    EXPECT_FALSE(core::ConcolicRecipe::parse("deep_parser"));
    EXPECT_FALSE(core::ConcolicRecipe::parse("@7|port:0|pkt:00"));       // no program
    EXPECT_FALSE(core::ConcolicRecipe::parse("p@x|port:0|pkt:00"));      // bad slot
    EXPECT_FALSE(core::ConcolicRecipe::parse("p@7|port:z|pkt:00"));      // bad port
    EXPECT_FALSE(core::ConcolicRecipe::parse("p@7|pkt:00"));             // no port
    EXPECT_FALSE(core::ConcolicRecipe::parse("p@7|port:0"));             // no packet
    EXPECT_FALSE(core::ConcolicRecipe::parse("p@7|port:0|pkt:0"));       // odd hex
    EXPECT_FALSE(core::ConcolicRecipe::parse("p@7|port:0|pkt:0g"));      // non-hex
    EXPECT_FALSE(core::ConcolicRecipe::parse("p@7|port:0|pkt:00|def:"));  // empty def
    EXPECT_FALSE(core::ConcolicRecipe::parse("p@7|port:0|pkt:00|def:t"));  // no action
    EXPECT_FALSE(core::ConcolicRecipe::parse("p@7|port:0|pkt:00|def:t:a:xyz"));
    EXPECT_FALSE(core::ConcolicRecipe::parse("p@7|port:0|pkt:00|bogus:1"));
}

// Adversarial `.corpus` inputs: every malformed file is rejected with a
// diagnostic -- never a crash, never a silent skip.
TEST(ScenarioCorpus, MalformedFilesAreRejectedWithDiagnostics) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "ndb_corpus_adversarial_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto write = [&dir](const char* name, const std::string& body) {
        std::ofstream out(dir / name);
        out << body;
    };

    // One valid concolic entry rides along to prove loading still works.
    write("a_good.corpus",
          "seed=7\nprogram=reject_filter\nconcolic=reject_filter@7|port:0|pkt:0088\n");
    write("b_no_separator.corpus", "seed=1\nprogram=reject_filter\njunk line\n");
    write("c_unknown_key.corpus", "seed=1\nprogram=reject_filter\ncolor=red\n");
    write("d_missing_seed.corpus", "program=reject_filter\n");
    write("e_bad_concolic.corpus",
          "seed=1\nprogram=reject_filter\nconcolic=reject_filter@1|port:0|pkt:0g\n");
    write("f_both_kinds.corpus",
          "seed=1\nprogram=reject_filter\nmutate=reject_filter#1|byte:1:1\n"
          "concolic=reject_filter@1|port:0|pkt:00\n");
    write("g_wrong_program.corpus",
          "seed=1\nprogram=reject_filter\nconcolic=deep_parser@1|port:0|pkt:00\n");
    write("h_slot_mismatch.corpus",
          "seed=2\nprogram=reject_filter\nconcolic=reject_filter@1|port:0|pkt:00\n");
    write("i_truncated.corpus", "seed=\nprogram=reject_filter\n");
    write("j_binary_noise.corpus", "\x01\x02\xff\xfe no equals\n");
    write("k_bad_quirks.corpus",
          "seed=1\nprogram=reject_filter\nquirks=reject_as_accept=1\n");
    write("l_repeated_key.corpus", "seed=1\nseed=2\nprogram=reject_filter\n");
    write("m_empty_recipe.corpus", "seed=1\nprogram=reject_filter\nmutate=\n");

    core::ScenarioCorpus corpus;
    EXPECT_EQ(corpus.load_dir(dir.string(), {"reject_filter"}), 1u);
    ASSERT_EQ(corpus.entries("reject_filter").size(), 1u);
    EXPECT_TRUE(corpus.entries("reject_filter")[0].concolic);
    EXPECT_EQ(corpus.entries("reject_filter")[0].seed, 7u);

    // One diagnostic per damaged file, in file order, naming the file.
    const std::vector<std::string> expected = {
        "b_no_separator.corpus: line 3: no '=' separator",
        "c_unknown_key.corpus: line 3: unknown key 'color'",
        "d_missing_seed.corpus: missing program= or seed= line",
        "e_bad_concolic.corpus: malformed concolic= recipe: "
        "reject_filter@1|port:0|pkt:0g",
        "f_both_kinds.corpus: both mutate= and concolic= present; an entry is "
        "one kind",
        "g_wrong_program.corpus: concolic= recipe names program 'deep_parser' "
        "but entry is for 'reject_filter'",
        "h_slot_mismatch.corpus: concolic= slot 1 disagrees with seed=2",
        "i_truncated.corpus: line 1: unparseable seed ''",
        "j_binary_noise.corpus: line 1: no '=' separator",
        "k_bad_quirks.corpus: line 3: unparseable quirks 'reject_as_accept=1'",
        "l_repeated_key.corpus: line 2: repeated key 'seed'",
        "m_empty_recipe.corpus: line 3: empty mutate= recipe",
    };
    EXPECT_EQ(corpus.diagnostics(), expected);

    // A later clean load clears the previous run's diagnostics.
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    EXPECT_EQ(corpus.load_dir(dir.string(), {"reject_filter"}), 0u);
    EXPECT_TRUE(corpus.diagnostics().empty());
    std::filesystem::remove_all(dir);
}

TEST(Mutator, DeriveAndApplyAreDeterministic) {
    const core::SpecGenerator gen;
    const core::Mutator mutator(gen);
    core::ScenarioCorpus corpus;
    corpus.add("l2_switch", 3);
    corpus.add("l2_switch", 11);
    corpus.add("l2_switch", 19);

    const core::CorpusEntry& parent = corpus.entries("l2_switch")[0];
    const core::MutationRecipe a = mutator.derive(corpus, parent, 101);
    const core::MutationRecipe b = mutator.derive(corpus, parent, 101);
    EXPECT_EQ(a.encode(), b.encode());
    EXPECT_FALSE(a.ops.empty());
    EXPECT_EQ(a.program, "l2_switch");
    EXPECT_EQ(a.parent_seed, 3u);

    // Different seeds derive different recipes (with overwhelming
    // probability over the havoc operand space).
    const core::MutationRecipe c = mutator.derive(corpus, parent, 102);
    EXPECT_NE(a.encode(), c.encode());

    // apply() is a pure function of the recipe: byte-identical packet
    // streams and config shapes on every call.
    const core::Scenario s1 = mutator.apply(a);
    const core::Scenario s2 = mutator.apply(a);
    EXPECT_EQ(s1.program, "l2_switch");
    EXPECT_EQ(s1.seed, 3u);
    EXPECT_EQ(s1.config.size(), s2.config.size());
    ASSERT_EQ(s1.spec.count, s2.spec.count);
    for (std::uint64_t seq = 1; seq <= s1.spec.count; ++seq) {
        EXPECT_TRUE(core::instantiate(s1.spec.tmpl, seq)
                        .same_bytes(core::instantiate(s2.spec.tmpl, seq)));
    }

    // Chaining: deriving from a mutant parent inherits and extends its
    // ops.  A new splice (if drawn) goes to the *front* of the chain, so
    // the inherited ops must appear contiguously at offset 0 or 1.
    core::CorpusEntry mutant{"l2_switch", a.parent_seed, a.encode()};
    const core::MutationRecipe chained = mutator.derive(corpus, mutant, 103);
    EXPECT_GT(chained.ops.size(), a.ops.size());
    EXPECT_LE(chained.ops.size(), core::Mutator::kMaxChainOps);
    EXPECT_EQ(chained.parent_seed, a.parent_seed);
    const auto inherited_at = [&](std::size_t off) {
        if (off + a.ops.size() > chained.ops.size()) return false;
        for (std::size_t i = 0; i < a.ops.size(); ++i) {
            const core::MutationOp& got = chained.ops[off + i];
            const core::MutationOp& want = a.ops[i];
            if (got.kind != want.kind || got.a != want.a || got.b != want.b) {
                return false;
            }
        }
        return true;
    };
    EXPECT_TRUE(inherited_at(0) || inherited_at(1)) << chained.encode();

    // Chains that could overflow kMaxChainOps restart from the root
    // parent: a recipe is never longer than the documented cap.
    core::MutationRecipe longr;
    longr.program = "l2_switch";
    longr.parent_seed = 3;
    longr.ops.assign(core::Mutator::kMaxChainOps - 1,
                     {core::MutationOp::Kind::packet_byte, 1, 1});
    core::CorpusEntry capped{"l2_switch", 3, longr.encode()};
    const core::MutationRecipe restarted = mutator.derive(corpus, capped, 104);
    EXPECT_LE(restarted.ops.size(), core::Mutator::kMaxOpsPerDerive);
    EXPECT_EQ(restarted.parent_seed, 3u);

    // At most one splice per chain: a second one would wipe the first
    // donor's packet plan and degrade to a config trim.
    core::MutationRecipe spliced;
    spliced.program = "l2_switch";
    spliced.parent_seed = 3;
    spliced.ops = {{core::MutationOp::Kind::splice, 2, 11}};
    core::CorpusEntry splice_parent{"l2_switch", 3, spliced.encode()};
    for (std::uint64_t seed = 200; seed < 230; ++seed) {
        const core::MutationRecipe r =
            mutator.derive(corpus, splice_parent, seed);
        const auto splices = std::count_if(
            r.ops.begin(), r.ops.end(), [](const core::MutationOp& op) {
                return op.kind == core::MutationOp::Kind::splice;
            });
        EXPECT_LE(splices, 1) << r.encode();
    }

    // Unknown program: apply must throw, not mis-replay.
    core::MutationRecipe bad = a;
    bad.program = "no_such_program";
    EXPECT_THROW(mutator.apply(bad), std::invalid_argument);
}

TEST(Mutator, SpliceCrossesConfigPrefixWithDonorPacketPlan) {
    const core::SpecGenerator gen({"l2_switch"});
    const core::Mutator mutator(gen);

    const core::Scenario parent = gen.make_for(0, 3);
    const core::Scenario donor = gen.make_for(0, 11);
    ASSERT_FALSE(parent.config.empty());

    core::MutationRecipe recipe;
    recipe.program = "l2_switch";
    recipe.parent_seed = 3;
    recipe.ops = {{core::MutationOp::Kind::splice, 1, 11}};

    const core::Scenario spliced = mutator.apply(recipe);
    // Config: exactly the parent's length-1 prefix.
    ASSERT_EQ(spliced.config.size(), 1u);
    EXPECT_EQ(spliced.config[0].target, parent.config[0].target);
    // Packet plan: the donor's, byte for byte.
    ASSERT_EQ(spliced.spec.count, donor.spec.count);
    EXPECT_EQ(spliced.spec.inject_port, donor.spec.inject_port);
    for (std::uint64_t seq = 1; seq <= donor.spec.count; ++seq) {
        EXPECT_TRUE(core::instantiate(spliced.spec.tmpl, seq)
                        .same_bytes(core::instantiate(donor.spec.tmpl, seq)));
    }
}

core::CampaignConfig mutate_config(std::uint64_t scenarios, int threads) {
    core::CampaignConfig config;
    config.base_seed = 7;
    config.scenarios = scenarios;
    config.threads = threads;
    config.mutate = true;  // implies coverage
    config.corpus_dir = NDB_CORPUS_DIR;
    config.duts = {core::BackendSpec{"sdnet", std::nullopt, "sdnet"}};
    return config;
}

TEST(MutateCampaign, ReportByteIdenticalAcrossThreadCounts) {
    core::CampaignEngine one(mutate_config(60, 1));
    core::CampaignEngine four(mutate_config(60, 4));
    const core::CampaignReport r1 = one.run();
    const core::CampaignReport r4 = four.run();
    EXPECT_TRUE(r1.coverage_enabled);
    EXPECT_GT(r1.scenarios_mutated, 0u);
    EXPECT_FALSE(r1.divergences.empty());
    EXPECT_EQ(r1.to_json(), r4.to_json());
}

TEST(MutateCampaign, EveryMutatedDivergenceReplaysFromItsRecipe) {
    // Preloading the corpus and forcing mutation_rate=1 makes every slot a
    // mutant, so every reported divergence must carry a parentage recipe --
    // and each recipe must reproduce its divergence through the
    // single-scenario replay path.
    core::CampaignConfig config = mutate_config(24, 2);
    config.programs = {"reject_filter"};
    config.mutation_rate = 1.0;
    core::CampaignEngine engine(config);
    const core::CampaignReport report = engine.run();

    EXPECT_EQ(report.scenarios_mutated, report.scenarios);
    ASSERT_FALSE(report.divergences.empty()) << report.to_string();

    for (const auto& d : report.divergences) {
        SCOPED_TRACE(d.fingerprint);
        ASSERT_FALSE(d.recipe.empty()) << "mutated divergence lost its recipe";
        const auto parsed = core::MutationRecipe::parse(d.recipe);
        ASSERT_TRUE(parsed.has_value()) << d.recipe;
        EXPECT_EQ(parsed->parent_seed, d.seed);

        core::CampaignConfig replay;
        replay.scenarios = 1;
        replay.threads = 1;
        replay.programs = {d.program};
        replay.duts = {core::BackendSpec{"sdnet", std::nullopt, "sdnet"}};
        replay.mutation_recipe = d.recipe;
        core::CampaignEngine replayer(replay);
        const core::CampaignReport rr = replayer.run();
        ASSERT_EQ(rr.divergences.size(), 1u) << rr.to_string();
        EXPECT_EQ(rr.divergences[0].fingerprint, d.fingerprint);
        EXPECT_EQ(rr.divergences[0].recipe, d.recipe);
        EXPECT_TRUE(rr.divergences[0].minimized_reproduces);
    }
}

TEST(MutateCampaign, DamagedCorpusFileFailsTheRunBeforeAnyScenario) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "ndb_mutate_damaged_corpus_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto write = [&dir](const char* name, const std::string& body) {
        std::ofstream out(dir / name);
        out << body;
    };
    write("a_good.corpus", "seed=5\nprogram=reject_filter\n");
    write("b_junkseed.corpus", "seed=7junk\nprogram=reject_filter\n");

    core::CampaignConfig config = mutate_config(8, 1);
    config.programs = {"reject_filter"};
    config.corpus_dir = dir.string();
    core::CampaignEngine engine(config);
    try {
        engine.run();
        ADD_FAILURE() << "a damaged corpus file did not fail the run";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("b_junkseed.corpus: line 1: unparseable seed '7junk'"),
                  std::string::npos)
            << what;
        EXPECT_EQ(what.find("a_good.corpus"), std::string::npos) << what;
    }

    // A missing directory and an out-of-catalogue program stay silent.
    std::filesystem::remove(dir / "b_junkseed.corpus");
    write("c_other.corpus", "seed=3\nprogram=deep_parser\n");
    core::CampaignEngine clean(config);
    EXPECT_NO_THROW(clean.run());
    config.corpus_dir = (dir / "nope").string();
    core::CampaignEngine missing(config);
    EXPECT_NO_THROW(missing.run());
    std::filesystem::remove_all(dir);
}

// --- the seven-flag acceptance sweep (tests/quirk_fixture.h) ------------------

TEST(MutateCampaign, FindsAllSevenWithinGuidedBudgetAndDutCoverageContributes) {
    const ndb_test::FlagFixture fx = ndb_test::seven_flag_fixture();

    // PR 4's fresh-seed guided mode: the budget bar mutation must meet.
    core::CampaignConfig guided;
    guided.base_seed = 1;
    guided.scenarios = 128;
    guided.threads = 2;
    ndb_test::apply_fixture(fx, guided);
    guided.coverage = true;
    core::CampaignEngine guided_engine(guided);
    const core::CampaignReport guided_report = guided_engine.run();
    const std::uint64_t guided_budget =
        ndb_test::budget_to_all_seven(guided_report, fx);
    ASSERT_GT(guided_budget, 0u)
        << "fresh-seed guided mode never found all seven flags:\n"
        << guided_report.to_string();

    // Mutation-guided mode, given exactly that budget, must also surface
    // all seven fingerprints in no more scenario executions.
    core::CampaignConfig mutated = guided;
    mutated.mutate = true;
    mutated.scenarios = guided_budget;
    core::CampaignEngine mutated_engine(mutated);
    const core::CampaignReport mutated_report = mutated_engine.run();

    std::set<std::string> found;
    for (const auto& d : mutated_report.divergences) found.insert(d.backend);
    EXPECT_EQ(found.size(), fx.duts.size())
        << "mutation-guided mode missed flags within the guided budget of "
        << guided_budget << " scenarios:\n"
        << mutated_report.to_string();

    const std::uint64_t mutated_budget =
        ndb_test::budget_to_all_seven(mutated_report, fx);
    ASSERT_GT(mutated_budget, 0u);
    EXPECT_LE(mutated_budget, guided_budget);

    // DUT coverage feedback must visibly contribute: the merged edge count
    // exceeds what the reference maps alone discovered, and at least one
    // quirked backend's salted map added edges of its own.
    EXPECT_GT(mutated_report.coverage_edges,
              mutated_report.coverage_edges_reference);
    ASSERT_EQ(mutated_report.coverage_edges_dut.size(),
              mutated_report.backends.size());
    std::uint64_t best_dut = 0;
    for (const auto edges : mutated_report.coverage_edges_dut) {
        best_dut = std::max(best_dut, edges);
    }
    EXPECT_GT(best_dut, 0u);
}

TEST(Soak, MutantRecipesCarryAMutateLine) {
    core::CampaignReport report;
    core::DivergenceRecord rec;
    rec.seed = 1;
    rec.backend = "sdnet";
    rec.program = "reject_filter";
    rec.quirk_signature = "reject_as_accept";
    rec.recipe = "reject_filter#1|byte:3:7";
    rec.fingerprint = "sdnet|reject_as_accept|parser";
    rec.minimized_count = 1;
    rec.minimized_reproduces = true;
    report.divergences.push_back(rec);

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "ndb_mutate_soak_test";
    std::filesystem::remove_all(dir);
    const core::SoakResult grown =
        core::append_unique_corpus_entries(report, dir.string());
    ASSERT_EQ(grown.written.size(), 1u);

    const core::CorpusDir written = core::read_corpus_dir(dir.string());
    EXPECT_TRUE(written.diagnostics.empty())
        << ::testing::PrintToString(written.diagnostics);
    ASSERT_EQ(written.records.size(), 1u);
    EXPECT_EQ(written.records[0].file, grown.written[0]);
    EXPECT_FALSE(written.records[0].concolic);
    EXPECT_EQ(written.records[0].recipe, rec.recipe);
    std::filesystem::remove_all(dir);
}

}  // namespace
