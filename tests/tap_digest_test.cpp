// Streaming tap digests vs the copy-based implementation.
//
// The campaign engine used to deep-copy three PacketState taps per packet
// and hash the copies; the pipeline now hashes the live state in place.
// These tests pin the values: for every corpus seed (and both the golden
// and quirked device images), the in-place TapDigest must be bit-identical
// to hashing materialized tap copies with the reference digest of
// digest_reference.h, which rebuilds every header's wire image field by
// field from the copy's get() values.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/corpus.h"
#include "core/generator.h"
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
                              const std::optional<dataplane::PacketState>& tap) {
    if (!tap) return 0x9e3779b97f4a7c15ull;  // sentinel: stage never reached
    return testutil::reference_digest(
        prog, [&](int h) { return tap->header_valid(h); },
        [&](int h, int f) { return tap->get({h, f}); });
}

// Traces a scenario's packet stream with streaming digests enabled and
// asserts each digest describes the identical execution as the traced
// stage copies.
void check_device(target::Device& dev, const core::Scenario& sc) {
    ASSERT_TRUE(dev.load(*sc.compiled));
    dev.apply(sc.config);

    dev.set_digests_enabled(true);

    core::TestPacketGenerator pgen(sc.spec);
    std::vector<dataplane::PipelineResult> traced;
    for (std::uint64_t seq = 1; seq <= sc.spec.count; ++seq) {
        traced.push_back(dev.trace(pgen.make_packet(seq, 1'000'000 + (seq - 1) * 672)));
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
        EXPECT_EQ(d.stage_hash[0], copy_based_hash(prog, r.tap_after_parser))
            << "parser tap, packet " << i + 1;
        EXPECT_EQ(d.stage_hash[1], copy_based_hash(prog, r.tap_after_ingress))
            << "ingress tap, packet " << i + 1;
        EXPECT_EQ(d.stage_hash[2], copy_based_hash(prog, r.tap_after_egress))
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
        const core::SpecGenerator gen({entry.program});
        const core::Scenario sc = gen.make(entry.seed);

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

}  // namespace
