// End-to-end smoke: every sample program compiles, loads on the reference
// device, and a basic packet round-trips.  Bit widths outside [1, 4096]
// and hostile (truncated or byte-mutated) sources are refused with a
// diagnostic.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "core/tools.h"
#include "p4/compiler.h"
#include "p4/programs.h"
#include "packet/protocols.h"
#include "target/device.h"
#include "util/diag.h"
#include "util/random.h"

namespace {

using namespace ndb;

TEST(CompilerSmoke, AllSamplesCompile) {
    for (const auto& sample : p4::programs::all_samples()) {
        SCOPED_TRACE(sample.name);
        std::unique_ptr<p4::ir::Program> prog;
        ASSERT_NO_THROW(prog = p4::compile_source(sample.source, sample.name))
            << sample.name;
        ASSERT_NE(prog, nullptr);
        EXPECT_FALSE(prog->parser_states.empty());
        EXPECT_FALSE(prog->deparse_order.empty());
    }
}

TEST(CompilerSmoke, PassthroughForwardsToPortOne) {
    auto prog = p4::compile_source(p4::programs::passthrough(), "passthrough");
    auto device = target::make_device("reference");
    ASSERT_TRUE(device->load(*prog));

    packet::Packet pkt = packet::PacketBuilder()
                             .ethernet(packet::mac_from_string("02:00:00:00:00:02"),
                                       packet::mac_from_string("02:00:00:00:00:01"))
                             .ipv4("10.0.0.1", "10.0.0.2", packet::kIpProtoUdp)
                             .udp(1000, 2000)
                             .payload_size(32)
                             .build();
    pkt.meta.ingress_port = 0;
    device->inject(pkt);

    auto out = device->drain_port(1);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].same_bytes(pkt));
}

TEST(CompilerSmoke, RejectFilterDropsNonIpv4OnReference) {
    auto prog = p4::compile_source(p4::programs::reject_filter(), "reject_filter");
    auto device = target::make_device("reference");
    ASSERT_TRUE(device->load(*prog));

    packet::ArpMessage arp;
    arp.opcode = 1;
    packet::Packet pkt = packet::PacketBuilder()
                             .ethernet(packet::mac_from_string("ff:ff:ff:ff:ff:ff"),
                                       packet::mac_from_string("02:00:00:00:00:01"))
                             .arp(arp)
                             .build();
    pkt.meta.ingress_port = 0;
    device->inject(pkt);
    EXPECT_EQ(device->drain_port(1).size(), 0u);

    auto snap = device->snapshot();
    EXPECT_EQ(snap.stages.parser_rejected, 1u);
}

TEST(CompilerSmoke, RejectFilterForwardsNonIpv4OnSdnet) {
    // The paper's bug: the SDNet-like target has no reject state.
    auto prog = p4::compile_source(p4::programs::reject_filter(), "reject_filter");
    auto device = target::make_device("sdnet");
    ASSERT_TRUE(device->load(*prog));

    packet::ArpMessage arp;
    packet::Packet pkt = packet::PacketBuilder()
                             .ethernet(packet::mac_from_string("ff:ff:ff:ff:ff:ff"),
                                       packet::mac_from_string("02:00:00:00:00:01"))
                             .arp(arp)
                             .build();
    pkt.meta.ingress_port = 0;
    device->inject(pkt);
    EXPECT_EQ(device->drain_port(1).size(), 1u);  // wrongly forwarded
}

// Bit widths outside [1, 4096] come back from try_compile_source as a
// diagnostic, never as an exception or a silently narrowed width.
TEST(CompilerSmoke, OutOfRangeBitWidthsAreDiagnostics) {
    struct Case {
        const char* from;  // text of the passthrough sample to replace
        const char* to;
        const char* diagnostic;
    };
    const Case cases[] = {
        // Too large for int: the width prefix must not throw out_of_range.
        {"9w1;", "99999999999w1;", "bad width prefix"},
        // 2^32 + 1 and a sized 2^64 + 1 narrow to 1, which is in range, so
        // the check must look at the whole literal.
        {"bit<48> dstAddr;", "bit<4294967297> dstAddr;",
         "bit width must be in [1, 4096]"},
        {"bit<48> dstAddr;", "bit<72w0x10000000000000001> dstAddr;",
         "bit width must be in [1, 4096]"},
        {"bit<48> dstAddr;", "bit<4097> dstAddr;", "bit width must be in [1, 4096]"},
        {"bit<48> dstAddr;", "bit<0> dstAddr;", "bit width must be in [1, 4096]"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.to);
        std::string src(p4::programs::passthrough());
        const std::size_t pos = src.find(c.from);
        ASSERT_NE(pos, std::string::npos);
        src.replace(pos, std::string_view(c.from).size(), c.to);

        util::DiagEngine diags;
        p4::CompileResult result;
        EXPECT_NO_THROW(result = p4::try_compile_source(src, "width_probe", diags));
        EXPECT_FALSE(result.ok);
        EXPECT_NE(diags.report().find(c.diagnostic), std::string::npos)
            << diags.report();
    }
}

// The front end's negative class: every catalogue source truncated every
// 31 bytes, plus 50 seeded mutants per source with 1-4 bytes overwritten.
// try_compile_source never throws, every refusal carries an error
// diagnostic, and an input that still compiles loads on the reference
// device and takes two probe packets.
TEST(CompilerSmoke, HostileSourcesFailWithDiagnostics) {
    util::Rng rng(0x0bad'5eed);
    const auto check = [](const std::string& src, const std::string& what) {
        SCOPED_TRACE(what);
        util::DiagEngine diags;
        p4::CompileResult result;
        ASSERT_NO_THROW(result = p4::try_compile_source(src, "hostile", diags));
        if (!result.ok) {
            EXPECT_TRUE(diags.has_errors()) << "refused without an error";
            return;
        }
        ASSERT_NE(result.program, nullptr);
        auto device = target::make_device("reference");
        ASSERT_TRUE(device->load(
            std::shared_ptr<const p4::ir::Program>(std::move(result.program))));
        for (packet::Packet pkt :
             {core::scenario::ipv4_udp_packet(), core::scenario::arp_packet()}) {
            pkt.meta.ingress_port = 0;
            device->inject(std::move(pkt));
        }
        device->flush();
        EXPECT_EQ(device->snapshot().stages.parser_in, 2u);
    };
    for (const auto& sample : p4::programs::all_samples()) {
        const std::string source(sample.source);
        for (std::size_t len = 0; len < source.size(); len += 31) {
            check(source.substr(0, len),
                  sample.name + " cut at byte " + std::to_string(len));
        }
        for (int m = 0; m < 50; ++m) {
            std::string mutant = source;
            const std::uint64_t changes = 1 + rng.next_below(4);
            for (std::uint64_t c = 0; c < changes; ++c) {
                mutant[rng.next_below(mutant.size())] =
                    static_cast<char>(rng.next_below(256));
            }
            check(mutant, sample.name + " mutant " + std::to_string(m));
        }
    }
}

}  // namespace
