// Reference vs. vendor-backend divergence for the quirk catalogue:
// shift_miscompile at expression level, ternary_priority_inverted and
// parser_depth_limit at device level (the latter localized through the taps),
// the localizer's one traced packet per device, plus the quirk signature's
// strict parser.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/localize.h"
#include "core/tools.h"
#include "dataplane/interp.h"
#include "p4/compiler.h"
#include "p4/programs.h"
#include "target/device.h"

namespace {

using namespace ndb;

TEST(Quirks, SdnetCatalogueHeadlinedByRejectAsAccept) {
    const dataplane::Quirks q = target::sdnet_quirks();
    EXPECT_TRUE(q.reject_as_accept);
    EXPECT_TRUE(q.any());
    EXPECT_FALSE(dataplane::Quirks{}.any());
}

TEST(Quirks, SignatureParseIsItsStrictInverse) {
    // The faithful target, each of the ten single flags, and the catalogue.
    std::vector<dataplane::Quirks> cases(1);
    const auto with = [&cases](auto set) {
        dataplane::Quirks q;
        set(q);
        cases.push_back(q);
    };
    with([](dataplane::Quirks& q) { q.reject_as_accept = true; });
    with([](dataplane::Quirks& q) { q.parser_depth_limit = 4; });
    with([](dataplane::Quirks& q) { q.skip_checksum_update = true; });
    with([](dataplane::Quirks& q) { q.shift_miscompile = true; });
    with([](dataplane::Quirks& q) { q.table_size_clamp = 2; });
    with([](dataplane::Quirks& q) { q.ternary_priority_inverted = true; });
    with([](dataplane::Quirks& q) { q.metadata_clobber = true; });
    with([](dataplane::Quirks& q) { q.stale_entry = true; });
    with([](dataplane::Quirks& q) { q.expiry_off_by_one = true; });
    with([](dataplane::Quirks& q) { q.hash_collision_misdirect = 3; });
    cases.push_back(target::sdnet_quirks());

    std::set<std::string> distinct;
    for (const dataplane::Quirks& q : cases) {
        const std::string sig = q.signature();
        SCOPED_TRACE(sig);
        distinct.insert(sig);
        const auto back = dataplane::Quirks::parse(sig);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->signature(), sig);
        EXPECT_EQ(back->any(), q.any());
    }
    EXPECT_EQ(distinct.size(), cases.size());
    EXPECT_EQ(cases[0].signature(), "none");
    EXPECT_EQ(target::sdnet_quirks().signature(),
              "reject_as_accept+parser_depth_limit=4+shift_miscompile+"
              "ternary_priority_inverted+stale_entry+expiry_off_by_one+"
              "hash_collision_misdirect=3");
    // Order is free; the signature stays canonical.
    const auto reordered =
        dataplane::Quirks::parse("table_size_clamp=7+reject_as_accept");
    ASSERT_TRUE(reordered.has_value());
    EXPECT_EQ(reordered->signature(), "reject_as_accept+table_size_clamp=7");

    for (const char* bad : {
             "bogus",                                     // unknown name
             "none+reject_as_accept",                     // "none" stands alone
             "reject_as_accept=1", "stale_entry=",        // value on a boolean
             "parser_depth_limit", "table_size_clamp=",   // missing value
             "hash_collision_misdirect",
             "parser_depth_limit=0", "table_size_clamp=0",  // zero
             "hash_collision_misdirect=0",
             "parser_depth_limit=4x", "table_size_clamp=-2",  // junk value
             "hash_collision_misdirect=3.0",
             "parser_depth_limit=2147483648",             // beyond int
             "stale_entry+stale_entry",                   // duplicate
             "parser_depth_limit=4+parser_depth_limit=5",
             "", "reject_as_accept+", "+reject_as_accept",  // empty token
             "reject_as_accept++shift_miscompile",
         }) {
        EXPECT_FALSE(dataplane::Quirks::parse(bad).has_value()) << "'" << bad << "'";
    }
}

TEST(Quirks, ShiftMiscompileTurnsRightShiftsLeft) {
    // 0x80 >> 4: correct backends produce 0x08; the miscompiled one shifts
    // left and the bit falls off the 8-bit result entirely.
    auto prog = p4::compile_source(p4::programs::passthrough(), "passthrough");
    dataplane::PacketState state = dataplane::PacketState::initial(
        *prog, packet::PacketMeta{}, 64);
    dataplane::Frame frame;

    p4::ir::Expr expr;
    expr.kind = p4::ir::Expr::Kind::binary;
    expr.bin = p4::ast::BinOp::shr;
    expr.width = 8;
    expr.a = p4::ir::make_const(util::Bitvec(8, 0x80));
    expr.b = p4::ir::make_const(util::Bitvec(8, 4));

    const util::Bitvec faithful =
        dataplane::eval_expr(*prog, expr, state, frame, dataplane::Quirks{});
    EXPECT_EQ(faithful.to_u64(), 0x08u);

    dataplane::Quirks quirks;
    quirks.shift_miscompile = true;
    const util::Bitvec miscompiled =
        dataplane::eval_expr(*prog, expr, state, frame, quirks);
    EXPECT_EQ(miscompiled.to_u64(), 0x00u);
    EXPECT_TRUE(target::sdnet_quirks().shift_miscompile);
}

// Programs two overlapping ACL entries and returns the egress port the
// device picks for a canonical UDP packet (0 = dropped).
std::uint32_t acl_winner(target::Device& device) {
    const auto prog =
        p4::compile_source(p4::programs::acl_firewall(), "acl_firewall");
    EXPECT_TRUE(device.load(*prog));

    // Low-priority wildcard-everything entry -> port 3.
    control::ConfigOp wildcard;
    wildcard.target = "acl";
    wildcard.entry.key_values = {util::Bitvec(32, 0), util::Bitvec(32, 0),
                                 util::Bitvec(8, 0), util::Bitvec(16, 0)};
    wildcard.entry.key_masks = {util::Bitvec(32, 0), util::Bitvec(32, 0),
                                util::Bitvec(8, 0), util::Bitvec(16, 0)};
    wildcard.entry.priority = 1;
    wildcard.entry.action = "allow";
    wildcard.entry.action_args = {util::Bitvec(9, 3)};
    EXPECT_TRUE(device.apply({&wildcard, 1}).front());

    // High-priority UDP-to-7000 entry -> port 2.
    EXPECT_TRUE(core::scenario::add_acl_allow_udp(device, 7000, 2));

    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.ingress_port = 0;
    device.inject(pkt);
    for (std::uint32_t port = 0;
         port < static_cast<std::uint32_t>(device.config().num_ports); ++port) {
        if (!device.drain_port(port).empty()) return port;
    }
    return 0;
}

TEST(Quirks, TernaryPriorityInvertedPicksTheWrongAclEntry) {
    auto reference = target::make_reference_device();
    EXPECT_EQ(acl_winner(*reference), 2u);  // highest priority wins

    dataplane::Quirks quirks;
    quirks.ternary_priority_inverted = true;
    auto buggy = target::make_device("sdnet", quirks);
    ASSERT_NE(buggy, nullptr);
    EXPECT_EQ(acl_winner(*buggy), 3u);  // priority encoder wired backwards
    EXPECT_TRUE(target::sdnet_quirks().ternary_priority_inverted);
}

TEST(Quirks, RejectAsAcceptLocalizesToTheParserStage) {
    // The headline bug extracts identical headers before mis-accepting, so
    // only the verdicts diverge at the parser tap.
    const auto prog =
        p4::compile_source(p4::programs::reject_filter(), "reject_filter");
    auto dut = target::make_sdnet_device();
    auto golden = target::make_reference_device();
    ASSERT_TRUE(dut->load(*prog));
    ASSERT_TRUE(golden->load(*prog));

    packet::Packet arp = core::scenario::arp_packet();
    arp.meta.ingress_port = 0;

    core::FaultLocalizer localizer(*dut, *golden);
    const core::LocalizeResult result = localizer.localize(arp);
    EXPECT_TRUE(result.diverged);
    EXPECT_EQ(result.stage, dataplane::Stage::parser) << result.to_string();
    EXPECT_NE(result.description.find("verdict"), std::string::npos)
        << result.description;
    // One localization injects exactly one packet into each device.
    EXPECT_EQ(dut->snapshot().stages.parser_in, 1u);
    EXPECT_EQ(golden->snapshot().stages.parser_in, 1u);
}

TEST(Quirks, MetadataClobberConfinedToParserIsFound) {
    // metadata_clobber diverges only at the parser tap: stats_monitor's
    // ingress overwrites meta.pkt_count from a register before any use, so
    // ingress/egress taps and dispositions all agree.  The walk must not
    // let the later agreement hide it.
    const auto prog =
        p4::compile_source(p4::programs::stats_monitor(), "stats_monitor");
    dataplane::Quirks clobber;
    clobber.metadata_clobber = true;
    auto dut = target::make_device("reference", clobber);
    auto golden = target::make_reference_device();
    ASSERT_TRUE(dut->load(*prog));
    ASSERT_TRUE(golden->load(*prog));

    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.ingress_port = 0;

    core::FaultLocalizer localizer(*dut, *golden);
    const core::LocalizeResult result = localizer.localize(pkt);
    EXPECT_TRUE(result.diverged) << result.to_string();
    EXPECT_EQ(result.stage, dataplane::Stage::parser);
}

TEST(Quirks, LocalizeTracesTheTriggerOncePerDevice) {
    // A stale_entry DUT never refreshes an occupied register cell.  With
    // port_pkts[0] written through the management plane, the trigger reads
    // the same count on both devices and only the write back differs,
    // which shows in the register state, not in any stage tap.  A second
    // injection would read that difference back and blame a stage.
    const auto stats =
        p4::compile_source(p4::programs::stats_monitor(), "stats_monitor");
    dataplane::Quirks stale;
    stale.stale_entry = true;
    auto dut = target::make_device("sdnet", stale);
    auto golden = target::make_reference_device();
    control::ConfigOp seed_count;
    seed_count.kind = control::ConfigOp::Kind::write_register;
    seed_count.target = "port_pkts";
    seed_count.index = 0;
    seed_count.value = util::Bitvec(48, 5);
    for (target::Device* dev : {dut.get(), golden.get()}) {
        ASSERT_TRUE(dev->load(*stats));
        ASSERT_TRUE(dev->apply({&seed_count, 1}).front());
    }
    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.ingress_port = 0;

    const core::LocalizeResult result =
        core::FaultLocalizer(*dut, *golden).localize(pkt);
    EXPECT_FALSE(result.diverged) << result.to_string();
    EXPECT_TRUE(result.conclusive);
    EXPECT_EQ(result.probes, 1);
    EXPECT_EQ(result.packets_replayed, 2u);
    EXPECT_EQ(dut->snapshot().stages.parser_in, 1u);
    EXPECT_EQ(golden->snapshot().stages.parser_in, 1u);
    util::Bitvec dut_count;
    util::Bitvec golden_count;
    ASSERT_TRUE(dut->read_register("port_pkts", 0, dut_count));
    ASSERT_TRUE(golden->read_register("port_pkts", 0, golden_count));
    EXPECT_EQ(dut_count.to_u64(), 5u);
    EXPECT_EQ(golden_count.to_u64(), 6u);
}

TEST(Quirks, ParserDepthLimitLocalizesToTheParserStage) {
    const auto prog = p4::compile_source(p4::programs::deep_parser(), "deep_parser");

    dataplane::Quirks quirks;
    quirks.parser_depth_limit = 4;  // ethernet + three labels, then give up
    auto dut = target::make_device("sdnet", quirks);
    auto golden = target::make_reference_device();
    ASSERT_TRUE(dut->load(*prog));
    ASSERT_TRUE(golden->load(*prog));

    packet::Packet stimulus = core::scenario::label_stack_packet(8);
    stimulus.meta.ingress_port = 0;

    core::FaultLocalizer localizer(*dut, *golden);
    const core::LocalizeResult result = localizer.localize(stimulus);
    EXPECT_TRUE(result.diverged) << result.to_string();
    EXPECT_EQ(result.stage, dataplane::Stage::parser) << result.to_string();
    EXPECT_EQ(result.probes, 1);

    // A shallow stack fits the hardware parser: the traces agree at every
    // stage.
    packet::Packet shallow = core::scenario::label_stack_packet(3);
    shallow.meta.ingress_port = 0;
    const core::LocalizeResult clean = localizer.localize(shallow);
    EXPECT_FALSE(clean.diverged) << clean.to_string();
    EXPECT_TRUE(clean.conclusive);
}

TEST(Quirks, DepthLimitedParserAcceptsEarlyAtPipelineLevel) {
    const auto prog = p4::compile_source(p4::programs::deep_parser(), "deep_parser");
    dataplane::Quirks quirks;
    quirks.parser_depth_limit = 4;

    dataplane::ParserEngine faithful(*prog);
    dataplane::ParserEngine limited(*prog, quirks);

    const packet::Packet pkt = core::scenario::label_stack_packet(8);
    dataplane::PacketState full = dataplane::PacketState::initial(
        *prog, pkt.meta, static_cast<std::uint32_t>(pkt.size()));
    dataplane::PacketState shallow = dataplane::PacketState::initial(
        *prog, pkt.meta, static_cast<std::uint32_t>(pkt.size()));

    EXPECT_EQ(faithful.run(pkt, full), dataplane::ParserVerdict::accept);
    EXPECT_EQ(limited.run(pkt, shallow), dataplane::ParserVerdict::accept);

    const int l3 = prog->header_index("l3");
    const int l7 = prog->header_index("l7");
    ASSERT_GE(l3, 0);
    ASSERT_GE(l7, 0);
    EXPECT_TRUE(full.header_valid(l7));
    EXPECT_TRUE(shallow.header_valid(prog->header_index("l2")));
    // Extracts beyond the hardware's stage budget silently never happen.
    EXPECT_FALSE(shallow.header_valid(l3));
    EXPECT_FALSE(shallow.header_valid(l7));
}

}  // namespace
