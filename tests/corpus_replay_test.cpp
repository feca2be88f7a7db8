// Regression corpus replay: every divergence-triggering seed committed
// under tests/corpus/ must keep triggering (and keep localizing to the same
// stage) forever.  A corpus entry is the minimal reproduction recipe: seed,
// catalogue program, backend, quirk signature, expected stage.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "coverage/coverage.h"
#include "dataplane/engine.h"

#ifndef NDB_CORPUS_DIR
#error "NDB_CORPUS_DIR must point at tests/corpus"
#endif

namespace {

using namespace ndb;

struct CorpusEntry {
    std::string file;
    std::uint64_t seed = 0;
    std::string program;
    std::string backend;
    std::string quirks_signature;
    std::string stage;
    // Optional mutation parentage: when present the entry is a mutant and
    // replays through CampaignConfig::mutation_recipe instead of a bare
    // seed.  Absent on pre-mutation corpus files (backward compatible).
    std::string mutate;
    // Optional concolic parentage: the entry is a solver-synthesized seed
    // ('@'-headed ConcolicRecipe; `seed` is its target coverage slot) and
    // must both reproduce its divergence and re-light that slot.
    std::string concolic;
};

// Parses a quirk signature ("a+b=2+c", as produced by Quirks::signature())
// back into a Quirks value.
dataplane::Quirks parse_signature(const std::string& signature) {
    dataplane::Quirks q;
    if (signature == "none") return q;
    std::size_t start = 0;
    while (start <= signature.size()) {
        const std::size_t plus = signature.find('+', start);
        const std::string item = signature.substr(
            start, plus == std::string::npos ? std::string::npos : plus - start);
        const std::size_t eq = item.find('=');
        const std::string key = item.substr(0, eq);
        const int value =
            eq == std::string::npos ? 0 : std::stoi(item.substr(eq + 1));
        if (key == "reject_as_accept") q.reject_as_accept = true;
        else if (key == "parser_depth_limit") q.parser_depth_limit = value;
        else if (key == "skip_checksum_update") q.skip_checksum_update = true;
        else if (key == "shift_miscompile") q.shift_miscompile = true;
        else if (key == "table_size_clamp") q.table_size_clamp = value;
        else if (key == "ternary_priority_inverted") q.ternary_priority_inverted = true;
        else if (key == "metadata_clobber") q.metadata_clobber = true;
        else if (key == "stale_entry") q.stale_entry = true;
        else if (key == "expiry_off_by_one") q.expiry_off_by_one = true;
        else if (key == "hash_collision_misdirect") q.hash_collision_misdirect = value;
        else ADD_FAILURE() << "unknown quirk in corpus signature: " << key;
        if (plus == std::string::npos) break;
        start = plus + 1;
    }
    return q;
}

std::vector<CorpusEntry> load_corpus() {
    std::vector<CorpusEntry> entries;
    std::vector<std::filesystem::path> files;
    for (const auto& file :
         std::filesystem::directory_iterator(NDB_CORPUS_DIR)) {
        if (file.path().extension() == ".corpus") files.push_back(file.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
        CorpusEntry entry;
        entry.file = path.filename().string();
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#') continue;
            const std::size_t eq = line.find('=');
            if (eq == std::string::npos) continue;
            const std::string key = line.substr(0, eq);
            const std::string value = line.substr(eq + 1);
            if (key == "seed") entry.seed = std::stoull(value);
            else if (key == "program") entry.program = value;
            else if (key == "backend") entry.backend = value;
            else if (key == "quirks") entry.quirks_signature = value;
            else if (key == "stage") entry.stage = value;
            else if (key == "mutate") entry.mutate = value;
            else if (key == "concolic") entry.concolic = value;
        }
        entries.push_back(std::move(entry));
    }
    return entries;
}

// One instance, on the data plane's only engine; the suite keeps its
// Engines/.../interpreter name so the test's history stays continuous.
class CorpusReplay : public ::testing::TestWithParam<dataplane::Engine> {};

INSTANTIATE_TEST_SUITE_P(Engines, CorpusReplay,
                         ::testing::Values(dataplane::Engine::interpreter),
                         [](const auto& info) {
                             return std::string(
                                 dataplane::engine_name(info.param));
                         });

TEST_P(CorpusReplay, EveryKnownDivergenceStillTriggers) {
    const std::vector<CorpusEntry> corpus = load_corpus();
    ASSERT_FALSE(corpus.empty()) << "empty corpus dir: " << NDB_CORPUS_DIR;

    for (const auto& entry : corpus) {
        SCOPED_TRACE(entry.file);
        const dataplane::Quirks quirks = parse_signature(entry.quirks_signature);

        core::CampaignConfig config;
        config.base_seed = entry.seed;
        config.scenarios = 1;
        config.threads = 1;
        config.programs = {entry.program};
        config.duts = {core::BackendSpec{entry.backend, quirks, "dut"}};
        // "" = fresh-seed replay; the mutate/concolic grammars are mutually
        // unparseable ('#' vs '@' head), so one field carries either.
        config.mutation_recipe =
            entry.concolic.empty() ? entry.mutate : entry.concolic;
        coverage::CoverageMap map;
        if (!entry.concolic.empty()) {
            config.coverage = true;
            config.coverage_map_out = &map;
        }
        core::CampaignEngine engine(config);
        const core::CampaignReport report = engine.run();

        if (!entry.concolic.empty()) {
            // A concolic entry's seed IS its target coverage slot; the
            // replayed scenario must still light it.
            EXPECT_EQ(report.scenarios_concolic, 1u);
            EXPECT_GT(map.count(static_cast<std::uint32_t>(entry.seed)), 0u)
                << "synthesized seed no longer lights its target slot";
        }

        ASSERT_EQ(report.divergences.size(), 1u)
            << "known-bug scenario no longer diverges\n"
            << report.to_string();
        const core::DivergenceRecord& d = report.divergences[0];
        EXPECT_EQ(d.seed, entry.seed);
        EXPECT_EQ(d.program, entry.program);
        EXPECT_EQ(d.quirk_signature, entry.quirks_signature);
        EXPECT_EQ(d.fingerprint, "dut|" + entry.quirks_signature + "|" + entry.stage)
            << report.to_string();
        EXPECT_TRUE(d.minimized_reproduces);
    }
}

}  // namespace
