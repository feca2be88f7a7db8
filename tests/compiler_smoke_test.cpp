// End-to-end smoke: every sample program compiles, loads on the reference
// device, and a basic packet round-trips.  Bit widths outside [1, 4096]
// are refused with a diagnostic.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "p4/compiler.h"
#include "p4/programs.h"
#include "packet/protocols.h"
#include "target/device.h"
#include "util/diag.h"

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
    auto device = target::make_reference_device();
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
    auto device = target::make_reference_device();
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
    auto device = target::make_sdnet_device();
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

}  // namespace
