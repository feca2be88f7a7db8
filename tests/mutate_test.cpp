// Mutation-engine contracts: recipe text round-trips, corpus loading and
// dedup, deterministic derive/build, splice semantics, byte-identical
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

// A catalogue recipe of `program` and `seed` with `n` byte ops.
core::Recipe::Catalogue byte_chain(const std::string& program,
                                   std::uint64_t seed, std::size_t n) {
    return {program, seed,
            std::vector<core::MutationOp>(
                n, core::MutationOp{core::MutationOp::Kind::packet_byte, 1, 1})};
}

TEST(MutationRecipe, EncodeParseRoundTrip) {
    const core::Recipe recipe = core::Recipe::Catalogue{
        "reject_filter",
        42,
        {
            {core::MutationOp::Kind::field_flip, 3, 0xdeadbeefull},
            {core::MutationOp::Kind::field_boundary, 1, 2},
            {core::MutationOp::Kind::packet_byte, 17, 255},
            {core::MutationOp::Kind::config_drop, 2, 0},
            {core::MutationOp::Kind::config_dup, 0, 4},
            {core::MutationOp::Kind::config_swap, 1, 3},
            {core::MutationOp::Kind::splice, 2, 977},
        }};

    const std::string text = recipe.encode();
    EXPECT_EQ(text.substr(0, text.find('|')), "reject_filter#42");

    const auto parsed = core::Recipe::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    ASSERT_NE(parsed->catalogue(), nullptr);
    EXPECT_EQ(parsed->concolic(), nullptr);
    EXPECT_EQ(parsed->program(), "reject_filter");
    EXPECT_EQ(parsed->seed(), 42u);
    EXPECT_FALSE(parsed->fresh());
    const auto& want = recipe.catalogue()->ops;
    const auto& got = parsed->catalogue()->ops;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].kind, want[i].kind) << "op " << i;
        EXPECT_EQ(got[i].a, want[i].a) << "op " << i;
        EXPECT_EQ(got[i].b, want[i].b) << "op " << i;
    }
    EXPECT_EQ(parsed->encode(), text);

    // No ops is the fresh scenario of the pair.
    const auto fresh = core::Recipe::parse("reject_filter#42");
    ASSERT_TRUE(fresh.has_value());
    EXPECT_TRUE(fresh->fresh());
    EXPECT_EQ(fresh->encode(), "reject_filter#42");

    // Junk must be rejected, not half-parsed.
    EXPECT_FALSE(core::Recipe::parse(""));
    EXPECT_FALSE(core::Recipe::parse("no_seed_marker"));
    EXPECT_FALSE(core::Recipe::parse("prog#notanumber"));
    EXPECT_FALSE(core::Recipe::parse("prog#1|unknown_op:1:2"));
    EXPECT_FALSE(core::Recipe::parse("prog#1|flip:abc:2"));
    EXPECT_FALSE(core::Recipe::parse("#1|flip:1:2"));
    EXPECT_FALSE(core::Recipe::parse("prog#1|"));
    // A truncated op (missing second operand) must fail, not replay a
    // different mutation with b=0.
    EXPECT_FALSE(core::Recipe::parse("prog#1|flip:1"));
    EXPECT_FALSE(core::Recipe::parse("prog#1|bound:13289271728200100208"));
    // Overflowing operands must fail too, not wrap mod 2^64 onto a
    // different mutation.
    EXPECT_FALSE(core::Recipe::parse("prog#1|byte:99999999999999999999999:1"));
    EXPECT_FALSE(core::Recipe::parse("prog#99999999999999999999999|byte:1:1"));
    // 2^64-1 itself is the largest legal operand.
    EXPECT_TRUE(core::Recipe::parse("prog#1|byte:18446744073709551615:1"));
    EXPECT_FALSE(core::Recipe::parse("prog#1|byte:18446744073709551616:1"));
    // The op cap bounds recipe text and replay cost at parse: kMaxChainOps
    // ops parse, one more does not.
    const std::string at_cap =
        core::Recipe(byte_chain("prog", 1, core::Mutator::kMaxChainOps)).encode();
    EXPECT_TRUE(core::Recipe::parse(at_cap)) << at_cap;
    const std::string over_cap =
        core::Recipe(byte_chain("prog", 1, core::Mutator::kMaxChainOps + 1))
            .encode();
    EXPECT_FALSE(core::Recipe::parse(over_cap)) << over_cap;
}

TEST(ScenarioCorpus, AddDedupAndLoadDir) {
    core::ScenarioCorpus corpus;
    EXPECT_TRUE(corpus.add(core::Recipe::Catalogue{"reject_filter", 1, {}}));
    // Identical recipe.
    EXPECT_FALSE(corpus.add(core::Recipe::Catalogue{"reject_filter", 1, {}}));
    EXPECT_TRUE(corpus.add(*core::Recipe::parse("reject_filter#1|byte:3:7")));
    EXPECT_TRUE(corpus.add(core::Recipe::Catalogue{"deep_parser", 9, {}}));
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
    // must be skipped or a worker would throw when building its scenario.
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
    EXPECT_TRUE(loaded.entries("reject_filter")[0].fresh());
    EXPECT_EQ(loaded.entries("reject_filter")[0].seed(), 5u);
    EXPECT_EQ(loaded.entries("reject_filter")[1].encode(),
              "reject_filter#5|byte:2:9");
    EXPECT_TRUE(loaded.entries("deep_parser").empty());

    // Missing directory is not an error.
    core::ScenarioCorpus none;
    EXPECT_EQ(none.load_dir((dir / "nope").string(), {"reject_filter"}), 0u);

    std::filesystem::remove_all(dir);
}

TEST(ConcolicRecipe, EncodeParseRoundTripAndStrictRejection) {
    verify::ConcolicRecipe model;
    model.program = "deep_parser";
    model.slot = 2044;
    model.ingress_port = 3;
    model.packet = {0x88, 0x47, 0x00, 0x01};
    model.defaults.push_back({"label_fib", "pop_forward", {{0x01, 0xff}}});
    model.defaults.push_back({"other", "NoAction", {}});
    const core::Recipe recipe(model);

    const std::string text = recipe.encode();
    const auto parsed = core::Recipe::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    ASSERT_NE(parsed->concolic(), nullptr);
    EXPECT_EQ(parsed->catalogue(), nullptr);
    EXPECT_FALSE(parsed->fresh());
    EXPECT_EQ(parsed->program(), model.program);
    EXPECT_EQ(parsed->seed(), model.slot);
    EXPECT_EQ(parsed->concolic()->ingress_port, model.ingress_port);
    EXPECT_EQ(parsed->concolic()->packet, model.packet);
    ASSERT_EQ(parsed->concolic()->defaults.size(), 2u);
    EXPECT_EQ(parsed->concolic()->defaults[0].args, model.defaults[0].args);
    EXPECT_EQ(parsed->encode(), text);

    // The head's first separator decides the kind: '#' a catalogue recipe,
    // '@' a concolic one, and the rest of the head must be a number, so no
    // text reads as both.
    ASSERT_TRUE(core::Recipe::parse("prog#1|byte:3:7"));
    EXPECT_NE(core::Recipe::parse("prog#1|byte:3:7")->catalogue(), nullptr);
    EXPECT_FALSE(core::Recipe::parse("p#1@7|port:0|pkt:00"));
    EXPECT_FALSE(core::Recipe::parse("p@7#1|byte:3:7"));
    // A concolic section never parses as an op, nor an op as a section.
    EXPECT_FALSE(core::Recipe::parse("p#7|port:0|pkt:00"));
    EXPECT_FALSE(core::Recipe::parse("p@7|port:0|pkt:00|byte:3:7"));

    // Every structural defect rejects the whole text.
    EXPECT_FALSE(core::Recipe::parse("deep_parser"));
    EXPECT_FALSE(core::Recipe::parse("@7|port:0|pkt:00"));       // no program
    EXPECT_FALSE(core::Recipe::parse("p@x|port:0|pkt:00"));      // bad slot
    EXPECT_FALSE(core::Recipe::parse("p@4096|port:0|pkt:00"));   // slot >= map
    EXPECT_FALSE(core::Recipe::parse("p@7|port:z|pkt:00"));      // bad port
    EXPECT_FALSE(core::Recipe::parse("p@7|port:512|pkt:00"));    // port > 9 bits
    EXPECT_FALSE(core::Recipe::parse("p@7|pkt:00"));             // no port
    EXPECT_FALSE(core::Recipe::parse("p@7|port:0"));             // no packet
    EXPECT_FALSE(core::Recipe::parse("p@7|port:0|pkt:0"));       // odd hex
    EXPECT_FALSE(core::Recipe::parse("p@7|port:0|pkt:0g"));      // non-hex
    EXPECT_FALSE(core::Recipe::parse("p@7|port:0|port:1|pkt:00"));  // twice
    EXPECT_FALSE(core::Recipe::parse("p@7|port:0|pkt:00|def:"));  // empty def
    EXPECT_FALSE(core::Recipe::parse("p@7|port:0|pkt:00|def:t"));  // no action
    EXPECT_FALSE(core::Recipe::parse("p@7|port:0|pkt:00|def:t:a:xyz"));
    EXPECT_FALSE(core::Recipe::parse("p@7|port:0|pkt:00|def:t:a|def:t:b"));
    EXPECT_FALSE(core::Recipe::parse("p@7|port:0|pkt:00|bogus:1"));
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
    // One op past the cap: the reader refuses what the parser refuses.
    const std::string long_chain =
        core::Recipe(byte_chain("reject_filter", 1, core::Mutator::kMaxChainOps + 1))
            .encode();
    write("n_too_many_ops.corpus",
          "seed=1\nprogram=reject_filter\nmutate=" + long_chain + "\n");
    // A mutate= recipe without ops is the fresh seed under a second
    // spelling; a fresh seed has no recipe line.
    write("o_no_ops.corpus",
          "seed=1\nprogram=reject_filter\nmutate=reject_filter#1\n");
    write("p_seed_mismatch.corpus",
          "seed=2\nprogram=reject_filter\nmutate=reject_filter#1|byte:1:1\n");
    write("q_kind_mismatch.corpus",
          "seed=7\nprogram=reject_filter\nmutate=reject_filter@7|port:0|pkt:00\n");

    core::ScenarioCorpus corpus;
    EXPECT_EQ(corpus.load_dir(dir.string(), {"reject_filter"}), 1u);
    ASSERT_EQ(corpus.entries("reject_filter").size(), 1u);
    EXPECT_NE(corpus.entries("reject_filter")[0].concolic(), nullptr);
    EXPECT_EQ(corpus.entries("reject_filter")[0].seed(), 7u);

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
        "n_too_many_ops.corpus: malformed mutate= recipe: " + long_chain,
        "o_no_ops.corpus: mutate= recipe has no ops; a fresh seed has no "
        "mutate= line",
        "p_seed_mismatch.corpus: mutate= seed 1 disagrees with seed=2",
        "q_kind_mismatch.corpus: malformed mutate= recipe: "
        "reject_filter@7|port:0|pkt:00",
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
    corpus.add(core::Recipe::Catalogue{"l2_switch", 3, {}});
    corpus.add(core::Recipe::Catalogue{"l2_switch", 11, {}});
    corpus.add(core::Recipe::Catalogue{"l2_switch", 19, {}});

    const core::Recipe::Catalogue& parent =
        *corpus.entries("l2_switch")[0].catalogue();
    const core::Recipe::Catalogue a = mutator.derive(corpus, parent, 101);
    const core::Recipe::Catalogue b = mutator.derive(corpus, parent, 101);
    EXPECT_EQ(core::Recipe(a).encode(), core::Recipe(b).encode());
    EXPECT_FALSE(a.ops.empty());
    EXPECT_EQ(a.program, "l2_switch");
    EXPECT_EQ(a.seed, 3u);

    // Different seeds derive different recipes (with overwhelming
    // probability over the havoc operand space).
    const core::Recipe::Catalogue c = mutator.derive(corpus, parent, 102);
    EXPECT_NE(core::Recipe(a).encode(), core::Recipe(c).encode());

    // build() is a pure function of the recipe: byte-identical packet
    // streams and config shapes on every call.
    const core::Scenario s1 = mutator.build(a);
    const core::Scenario s2 = mutator.build(a);
    EXPECT_EQ(s1.program, "l2_switch");
    EXPECT_EQ(s1.seed, 3u);
    EXPECT_EQ(s1.config.size(), s2.config.size());
    ASSERT_EQ(s1.spec.count, s2.spec.count);
    for (std::uint64_t seq = 1; seq <= s1.spec.count; ++seq) {
        EXPECT_TRUE(core::instantiate(s1.spec.tmpl, seq)
                        .same_bytes(core::instantiate(s2.spec.tmpl, seq)));
    }

    // A fresh recipe builds exactly the generator's scenario for its pair.
    const core::Scenario fresh =
        mutator.build(core::Recipe::Catalogue{"l2_switch", 3, {}});
    const core::Scenario made = gen.make_for(gen.index_of("l2_switch"), 3);
    EXPECT_EQ(fresh.compiled, made.compiled);
    EXPECT_EQ(fresh.config.size(), made.config.size());
    ASSERT_EQ(fresh.spec.count, made.spec.count);
    for (std::uint64_t seq = 1; seq <= made.spec.count; ++seq) {
        EXPECT_TRUE(core::instantiate(fresh.spec.tmpl, seq)
                        .same_bytes(core::instantiate(made.spec.tmpl, seq)));
    }

    // Chaining: deriving from a mutant parent inherits and extends its
    // ops.  A new splice (if drawn) goes to the *front* of the chain, so
    // the inherited ops must appear contiguously at offset 0 or 1.
    const core::Recipe::Catalogue chained = mutator.derive(corpus, a, 103);
    EXPECT_GT(chained.ops.size(), a.ops.size());
    EXPECT_LE(chained.ops.size(), core::Mutator::kMaxChainOps);
    EXPECT_EQ(chained.seed, a.seed);
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
    EXPECT_TRUE(inherited_at(0) || inherited_at(1))
        << core::Recipe(chained).encode();

    // Chains that could overflow kMaxChainOps restart from the root
    // parent: a recipe is never longer than the documented cap.
    const core::Recipe::Catalogue longr =
        byte_chain("l2_switch", 3, core::Mutator::kMaxChainOps - 1);
    const core::Recipe::Catalogue restarted = mutator.derive(corpus, longr, 104);
    EXPECT_LE(restarted.ops.size(), core::Mutator::kMaxOpsPerDerive);
    EXPECT_EQ(restarted.seed, 3u);

    // At most one splice per chain: a second one would wipe the first
    // donor's packet plan and degrade to a config trim.
    const core::Recipe::Catalogue spliced{
        "l2_switch", 3, {{core::MutationOp::Kind::splice, 2, 11}}};
    for (std::uint64_t seed = 200; seed < 230; ++seed) {
        const core::Recipe::Catalogue r = mutator.derive(corpus, spliced, seed);
        const auto splices = std::count_if(
            r.ops.begin(), r.ops.end(), [](const core::MutationOp& op) {
                return op.kind == core::MutationOp::Kind::splice;
            });
        EXPECT_LE(splices, 1) << core::Recipe(r).encode();
    }

    // Unknown program: build must throw, not mis-replay.
    core::Recipe::Catalogue bad = a;
    bad.program = "no_such_program";
    EXPECT_THROW(mutator.build(bad), std::invalid_argument);
}

TEST(Mutator, SpliceCrossesConfigPrefixWithDonorPacketPlan) {
    const core::SpecGenerator gen({"l2_switch"});
    const core::Mutator mutator(gen);

    const core::Scenario parent = gen.make_for(0, 3);
    const core::Scenario donor = gen.make_for(0, 11);
    ASSERT_FALSE(parent.config.empty());

    const core::Scenario spliced = mutator.build(core::Recipe::Catalogue{
        "l2_switch", 3, {{core::MutationOp::Kind::splice, 1, 11}}});
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
        const auto parsed = core::Recipe::parse(d.recipe);
        ASSERT_TRUE(parsed.has_value()) << d.recipe;
        ASSERT_NE(parsed->catalogue(), nullptr) << d.recipe;
        EXPECT_EQ(parsed->seed(), d.seed);

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
    // A replayed fresh recipe: its seed= and program= lines already spell
    // it, so it gets no mutate= line the reader would refuse.
    core::DivergenceRecord fresh = rec;
    fresh.seed = 2;
    fresh.recipe = "reject_filter#2";
    fresh.fingerprint = "sdnet|reject_as_accept|ingress";
    report.divergences.push_back(fresh);

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "ndb_mutate_soak_test";
    std::filesystem::remove_all(dir);
    const core::SoakResult grown =
        core::append_unique_corpus_entries(report, dir.string());
    ASSERT_EQ(grown.written.size(), 2u);

    const core::CorpusDir written = core::read_corpus_dir(dir.string());
    EXPECT_TRUE(written.diagnostics.empty())
        << ::testing::PrintToString(written.diagnostics);
    ASSERT_EQ(written.records.size(), 2u);
    std::set<std::string> texts;
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(written.records[i].file, grown.written[i]);
        EXPECT_NE(written.records[i].recipe.catalogue(), nullptr);
        texts.insert(written.records[i].recipe.encode());
    }
    EXPECT_EQ(texts, (std::set<std::string>{rec.recipe, fresh.recipe}));
    std::filesystem::remove_all(dir);
}

}  // namespace
