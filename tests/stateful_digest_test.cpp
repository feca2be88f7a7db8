// The extern-state digest folds only the cells a run touched and skips the
// rest arithmetically.  These tests hold it to the dense fold it replaced
// (tests/state_hash_reference.h), bit for bit: after every step of a
// seeded random workload -- register writes from the datapath and the
// control plane, counter counts, meter configures and executes, resets --
// each Info field equals the oracle's, and a reset set equals a freshly
// built one.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dataplane/stateful.h"
#include "p4/compiler.h"
#include "p4/programs.h"
#include "state_hash_reference.h"
#include "util/bitvec.h"
#include "util/random.h"

namespace {

using namespace ndb;
using dataplane::StatefulSet;
using util::Bitvec;

void expect_same_info(const std::vector<StatefulSet::Info>& got,
                      const std::vector<StatefulSet::Info>& want,
                      const std::string& where) {
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].name, want[i].name) << where;
        EXPECT_EQ(got[i].kind, want[i].kind) << where << " " << want[i].name;
        EXPECT_EQ(got[i].cells, want[i].cells) << where << " " << want[i].name;
        EXPECT_EQ(got[i].state_hash, want[i].state_hash)
            << where << " " << want[i].name;
        EXPECT_EQ(got[i].unconfigured_meters, want[i].unconfigured_meters)
            << where << " " << want[i].name;
    }
}

// Random value of any width, built 64 bits at a time.
Bitvec random_value(util::Rng& rng, int width) {
    Bitvec v(std::min(width, 64), rng.next_u64());
    while (v.width() < width) {
        v = Bitvec::concat(Bitvec(std::min(64, width - v.width()), rng.next_u64()), v);
    }
    return v;
}

// Mostly a few hot cells (so cells are rewritten), some uniform cells,
// some indices past the end (which every mutator drops).
std::uint64_t random_index(util::Rng& rng, std::uint64_t size) {
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 15) {
        return rng.next_bool(0.2) ? ~0ull : size + rng.next_below(70);
    }
    if (roll < 60) {
        const std::uint64_t hot[] = {0, 1, size / 2, size - 1};
        return std::min(hot[rng.next_below(4)], size - 1);
    }
    return rng.next_below(size);
}

// Runs `steps` seeded operations on a StatefulSet and on the dense oracle
// side by side, comparing info() after every one.
void run_against_oracle(const p4::ir::Program& prog, std::uint64_t seed,
                        int steps) {
    StatefulSet set(prog);
    testutil::DenseStatefulReference oracle(prog);
    const std::vector<StatefulSet::Info> power_on = StatefulSet(prog).info();
    expect_same_info(set.info(), oracle.info(), prog.name + " power-on");
    if (prog.externs.empty()) return;

    util::Rng rng(seed);
    std::uint64_t now_ns = 0;
    for (int step = 0; step < steps; ++step) {
        const std::string where = prog.name + " step " + std::to_string(step);
        if (rng.next_below(40) == 0) {
            set.reset_state();
            oracle.reset_state();
            expect_same_info(set.info(), power_on, where + " (reset vs fresh)");
            continue;
        }
        const auto& e = prog.externs[rng.next_below(prog.externs.size())];
        const auto size = static_cast<std::uint64_t>(e.array_size);
        const std::uint64_t index = random_index(rng, size);
        switch (e.kind) {
            case p4::ir::ExternDecl::Kind::reg: {
                // Control-plane writes carry the element width; datapath
                // writes carry their expression's width, resized on store.
                const bool control_plane = rng.next_bool();
                const int widths[] = {e.elem_width, 1, 32, 64, 128, e.elem_width + 7};
                const int width = control_plane ? e.elem_width : widths[rng.next_below(6)];
                const Bitvec value = rng.next_bool(0.25) ? Bitvec(width)
                                                         : random_value(rng, width);
                set.register_write(e.id, index, value);
                oracle.register_write(e.id, index, value);
                break;
            }
            case p4::ir::ExternDecl::Kind::counter: {
                const std::uint64_t bytes = rng.next_below(2000);
                set.counter_count(e.id, index, bytes);
                oracle.counter_count(e.id, index, bytes);
                break;
            }
            case p4::ir::ExternDecl::Kind::meter:
                if (rng.next_bool(0.3)) {
                    const bool zero = rng.next_bool(0.1);
                    const double cir = zero ? 0.0 : static_cast<double>(rng.next_below(1'000'000));
                    const double eir = zero ? 0.0 : static_cast<double>(rng.next_below(1'000'000));
                    const std::uint64_t cbs = rng.next_range(64, 1 << 20);
                    const std::uint64_t ebs = rng.next_range(64, 1 << 20);
                    set.meter_configure(e.id, index, cir, cbs, eir, ebs);
                    oracle.meter_configure(e.id, index, cir, cbs, eir, ebs);
                } else {
                    // Huge packets drain even an unconfigured meter's
                    // buckets, so a cell that was only executed must be
                    // restored by reset_state() too.
                    now_ns += rng.next_below(2000);
                    const std::uint64_t bytes = rng.next_bool()
                                                    ? rng.next_below(1500)
                                                    : rng.next_range(300'000'000, 900'000'000);
                    EXPECT_EQ(set.meter_execute(e.id, index, now_ns, bytes),
                              oracle.meter_execute(e.id, index, now_ns, bytes))
                        << where << " " << e.name << "[" << index << "]";
                }
                break;
        }
        expect_same_info(set.info(), oracle.info(), where);
        if (::testing::Test::HasFailure()) return;  // one report per program
    }
}

TEST(StatefulDigest, SparseFoldEqualsDenseOracleOnTheCatalogue) {
    std::size_t externs = 0;
    std::uint64_t seed = 0x5eed;
    for (const auto& sample : p4::programs::all_samples()) {
        const auto prog = p4::compile_source(sample.source, sample.name);
        externs += prog->externs.size();
        run_against_oracle(*prog, ++seed, 800);
    }
    EXPECT_EQ(p4::programs::all_samples().size(), 18u);
    EXPECT_GE(externs, 10u);  // registers, counters and a meter among them
}

TEST(StatefulDigest, SparseFoldEqualsDenseOracleAcrossWidthsAndSizes) {
    std::string decls;
    for (const int width : {1, 9, 48, 64, 65, 128}) {
        for (const int size : {1, 63, 64, 65, 512}) {
            decls += "    register<bit<" + std::to_string(width) + ">>(" +
                     std::to_string(size) + ") r" + std::to_string(width) + "_" +
                     std::to_string(size) + ";\n";
        }
    }
    const std::string source = R"P4(
header ethernet_t {
    bit<48> dstAddr;
    bit<48> srcAddr;
    bit<16> etherType;
}

struct headers { ethernet_t ethernet; }
struct metadata { bit<2> color; }

parser MyParser(packet_in pkt, out headers hdr, inout metadata meta,
                inout standard_metadata_t smeta) {
    state start {
        pkt.extract(hdr.ethernet);
        transition accept;
    }
}

control MyIngress(inout headers hdr, inout metadata meta,
                  inout standard_metadata_t smeta) {
)P4" + decls + R"P4(
    counter(65) hits;
    meter(63) rate;
    apply {
        smeta.egress_spec = 9w1;
    }
}

control MyDeparser(packet_out pkt, in headers hdr) {
    apply {
        pkt.emit(hdr.ethernet);
    }
}

NdpSwitch(MyParser(), MyIngress(), MyDeparser()) main;
)P4";
    const auto prog = p4::compile_source(source, "extern_shapes");
    ASSERT_EQ(prog->externs.size(), 32u);
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        run_against_oracle(*prog, seed, 1500);
    }
}

}  // namespace
