// Streaming tap digests vs the copy-based implementation.
//
// The campaign engine used to deep-copy three PacketState taps per packet
// and hash the copies; the pipeline now hashes the live state in place.
// These tests pin the values: for every corpus entry's recorded scenario
// (and both the golden and quirked device images), the in-place TapDigest
// must be bit-identical to hashing materialized tap copies with the
// reference digest of digest_reference.h, which rebuilds every header's
// wire image field by field from the copy's get() values.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/corpus.h"
#include "core/generator.h"
#include "core/mutate.h"
#include "core/scenario_exec.h"
#include "core/specgen.h"
#include "dataplane/digest.h"
#include "digest_reference.h"
#include "target/device.h"

#ifndef NDB_CORPUS_DIR
#error "NDB_CORPUS_DIR must point at tests/corpus"
#endif

namespace {

using namespace ndb;

// The digest of a materialized tap copy, rebuilt from its get() values.
std::uint64_t copy_based_hash(const p4::ir::Program& prog,
                              const dataplane::StageTaps& taps,
                              dataplane::Stage stage) {
    if (!taps.has(stage)) return 0x9e3779b97f4a7c15ull;  // sentinel: not reached
    const dataplane::PacketState& tap = taps.at(stage);
    return testutil::reference_digest(
        prog, [&](int h) { return tap.header_valid(h); },
        [&](int h, int f) { return tap.get({h, f}); });
}

// Traces a scenario's packet stream -- the one the campaign injects, on its
// timeline -- with streaming digests enabled and asserts each digest
// describes the identical execution as the traced stage copies.
void check_device(target::Device& dev, const core::Scenario& sc) {
    ASSERT_TRUE(dev.load(*sc.compiled));
    dev.apply(sc.config);

    dev.set_digests_enabled(true);

    const std::vector<packet::Packet> packets = core::scenario_packets(sc);
    std::vector<dataplane::PipelineResult> traced;
    std::vector<dataplane::StageTaps> taps;
    for (const packet::Packet& pkt : packets) {
        traced.push_back(dev.trace(pkt));
        taps.push_back(dev.taps());
    }
    dev.flush();

    const auto& digests = dev.digest_records();
    ASSERT_EQ(traced.size(), sc.spec.count);
    ASSERT_EQ(digests.size(), sc.spec.count);

    const p4::ir::Program& prog = dev.program();
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const dataplane::PipelineResult& r = traced[i];
        const dataplane::TapDigest& d = digests[i];
        EXPECT_EQ(d.verdict, r.parser_verdict) << "packet " << i + 1;
        EXPECT_EQ(d.disposition, r.disposition) << "packet " << i + 1;
        EXPECT_EQ(d.stage_hash[0], copy_based_hash(prog, taps[i], dataplane::Stage::parser))
            << "parser tap, packet " << i + 1;
        EXPECT_EQ(d.stage_hash[1], copy_based_hash(prog, taps[i], dataplane::Stage::ingress))
            << "ingress tap, packet " << i + 1;
        EXPECT_EQ(d.stage_hash[2], copy_based_hash(prog, taps[i], dataplane::Stage::egress))
            << "egress tap, packet " << i + 1;
    }
}

TEST(TapDigest, CorpusSeedsHashIdenticallyToCopyBasedTaps) {
    const core::CorpusDir corpus = core::read_corpus_dir(NDB_CORPUS_DIR);
    ASSERT_FALSE(corpus.records.empty()) << "empty corpus dir: " << NDB_CORPUS_DIR;

    for (const core::CorpusRecord& entry : corpus.records) {
        SCOPED_TRACE(entry.file);
        const auto quirks = dataplane::Quirks::parse(entry.quirks);
        ASSERT_TRUE(quirks.has_value()) << "no quirks= line";
        // The recorded scenario: a mutant's ops or a solver model's packet,
        // not the fresh scenario of the recipe's seed.
        const core::SpecGenerator gen({entry.recipe.program()});
        const core::Scenario sc = core::Mutator(gen).build(entry.recipe);

        // Golden image and the corpus entry's quirked image both stream the
        // same digests their tap copies would hash to.
        auto golden = target::make_device("reference");
        ASSERT_NE(golden, nullptr);
        check_device(*golden, sc);

        auto dut = target::make_device("sdnet", *quirks);
        ASSERT_NE(dut, nullptr);
        check_device(*dut, sc);
    }
}

TEST(TapDigest, UnreachedStagesReportTheSentinel) {
    // A parser-rejected packet never reaches ingress/egress: digests must
    // carry the same sentinel the copy-based hasher produced for a missing
    // tap, or stage-level divergence detection would misfire.
    const core::SpecGenerator gen({"reject_filter"});
    const core::Scenario sc = gen.make(3);
    auto dev = target::make_device("reference");
    ASSERT_TRUE(dev->load(*sc.compiled));
    dev->set_digests_enabled(true);

    core::TestPacketGenerator pgen(sc.spec);
    bool saw_reject = false;
    for (std::uint64_t seq = 1; seq <= sc.spec.count; ++seq) {
        dev->inject(pgen.make_packet(seq, 1'000'000 + (seq - 1) * 672));
    }
    for (const auto& d : dev->digest_records()) {
        if (d.verdict == dataplane::ParserVerdict::reject) {
            saw_reject = true;
            EXPECT_NE(d.stage_hash[0], dataplane::kStageNotReachedHash);
            EXPECT_EQ(d.stage_hash[1], dataplane::kStageNotReachedHash);
            EXPECT_EQ(d.stage_hash[2], dataplane::kStageNotReachedHash);
        }
    }
    EXPECT_TRUE(saw_reject) << "reject_filter seed 3 produced no rejects";
}

TEST(TapDigest, EveryRunKeepsOneDigestPerPacket) {
    // The device's digest ring holds target::kMaxDigestRecords (4,096), and
    // run_scenario_on empties it into the run after every batch (and within
    // a batch longer than the ring), so a stream of any length is diffed
    // stage by stage.  metadata_clobber on stats_monitor changes only
    // internal state: without the taps, the two runs agree on every output
    // and counter.
    dataplane::Quirks clobber;
    clobber.metadata_clobber = true;
    const core::SpecGenerator gen({"stats_monitor"});
    core::Scenario sc = gen.make(1);
    const struct {
        std::uint64_t count;
        std::size_t batch;
    } runs[] = {{4096, 8}, {4097, 8}, {10000, 8}, {10000, 5000}};
    for (const auto& [count, batch] : runs) {
        SCOPED_TRACE(std::to_string(count) + " packets in batches of " +
                     std::to_string(batch));
        sc.spec.count = count;
        const std::vector<packet::Packet> packets = core::scenario_packets(sc);
        auto ref = target::make_device("reference");
        auto dut = target::make_device("sdnet", clobber);
        const core::DeviceRun ref_run = core::run_scenario_on(*ref, sc, packets, batch);
        const core::DeviceRun dut_run = core::run_scenario_on(*dut, sc, packets, batch);
        EXPECT_EQ(ref_run.taps.size(), count);
        EXPECT_EQ(dut_run.taps.size(), count);
        const std::optional<core::RawDivergence> raw = core::diff_runs(dut_run, ref_run);
        ASSERT_TRUE(raw.has_value());
        EXPECT_EQ(raw->kind, "internal") << raw->detail;
    }
}

}  // namespace
