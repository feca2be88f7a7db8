// Regression corpus replay: every divergence-triggering seed committed
// under tests/corpus/ must keep triggering (and keep localizing to the same
// stage) forever.  A corpus entry is the minimal reproduction recipe: seed,
// catalogue program, backend, quirk signature, expected stage -- read by
// the same strict reader the mutation engine and soak mode use.
#include <gtest/gtest.h>

#include <string>

#include "core/campaign.h"
#include "core/corpus.h"
#include "coverage/coverage.h"

#ifndef NDB_CORPUS_DIR
#error "NDB_CORPUS_DIR must point at tests/corpus"
#endif

namespace {

using namespace ndb;

TEST(CorpusReplay, EveryKnownDivergenceStillTriggers) {
    const core::CorpusDir corpus = core::read_corpus_dir(NDB_CORPUS_DIR);
    // Every committed file must read cleanly: a rejected one would be
    // replayed by nobody and silently drop out of the mutation corpus.
    EXPECT_TRUE(corpus.diagnostics.empty())
        << ::testing::PrintToString(corpus.diagnostics);
    ASSERT_FALSE(corpus.records.empty()) << "empty corpus dir: " << NDB_CORPUS_DIR;

    for (const core::CorpusRecord& entry : corpus.records) {
        SCOPED_TRACE(entry.file);
        const core::Recipe& recipe = entry.recipe;
        const auto quirks = dataplane::Quirks::parse(entry.quirks);
        ASSERT_TRUE(quirks.has_value()) << "no quirks= line";

        core::CampaignConfig config;
        config.base_seed = recipe.seed();
        config.scenarios = 1;
        config.threads = 1;
        config.programs = {recipe.program()};
        config.duts = {core::BackendSpec{entry.backend, *quirks, "dut"}};
        // A fresh entry replays as a one-seed sweep, any other recipe
        // through the single-recipe path.
        if (!recipe.fresh()) config.mutation_recipe = recipe.encode();
        coverage::CoverageMap map;
        if (recipe.concolic()) {
            config.coverage = true;
            config.coverage_map_out = &map;
        }
        core::CampaignEngine engine(config);
        const core::CampaignReport report = engine.run();

        if (recipe.concolic()) {
            // A concolic entry's seed IS its target coverage slot; the
            // replayed scenario must still light it.
            EXPECT_EQ(report.scenarios_concolic, 1u);
            EXPECT_GT(map.count(static_cast<std::uint32_t>(recipe.seed())), 0u)
                << "synthesized seed no longer lights its target slot";
        }

        ASSERT_EQ(report.divergences.size(), 1u)
            << "known-bug scenario no longer diverges\n"
            << report.to_string();
        const core::DivergenceRecord& d = report.divergences[0];
        EXPECT_EQ(d.seed, recipe.seed());
        EXPECT_EQ(d.program, recipe.program());
        EXPECT_EQ(d.quirk_signature, entry.quirks);
        EXPECT_EQ(d.fingerprint, "dut|" + entry.quirks + "|" + entry.stage)
            << report.to_string();
        EXPECT_TRUE(d.minimized_reproduces);
    }
}

}  // namespace
