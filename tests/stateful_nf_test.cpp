// Stateful network functions at production flow counts.
//
// Four classic NF shapes (NAT, per-flow firewall, maglev-style load
// balancer, learning bridge) run with their register/extern state driven
// through the runtime API, and
// the state-quirk family (stale_entry, expiry_off_by_one,
// hash_collision_misdirect) is detected, minimized, fingerprinted and
// localized by the campaign with the usual determinism contract: one
// report, byte-identical across thread and process counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/fabric.h"
#include "core/scenario_exec.h"
#include "core/specgen.h"
#include "core/tools.h"
#include "p4/programs.h"
#include "quirk_fixture.h"
#include "target/device.h"
#include "util/bitvec.h"

namespace {

using namespace ndb;
using util::Bitvec;

// The fabric accounting block is the report's one timing-dependent part;
// byte-identity is asserted on everything else.
std::string json_without_fabric(core::CampaignReport r) {
    r.fabric_enabled = false;
    r.fabric = core::FabricAccounting{};
    return r.to_json();
}

core::CampaignConfig fixture_config(std::uint64_t scenarios) {
    core::CampaignConfig cfg;
    cfg.base_seed = 1;
    cfg.scenarios = scenarios;
    cfg.threads = 1;
    ndb_test::apply_fixture(ndb_test::state_quirk_fixture(), cfg);
    return cfg;
}

// --- flow state driven through the runtime API --------------------------------

TEST(StatefulNf, RuntimeApiDrivesNatBindingAndExpiry) {
    auto dev = target::make_device("reference");
    const auto prog =
        core::scenario::compile(p4::programs::nat_gateway(), "nat_gateway");
    ASSERT_TRUE(dev->load(*prog).ok);

    Bitvec missing;
    EXPECT_FALSE(dev->read_register("no_such_register", 0, missing).ok);

    // First packet of a fresh flow allocates a binding and translates.
    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.rx_time_ns = 1'000'000;  // now = 1000us
    dev->inject(pkt);
    std::vector<packet::Packet> out = dev->drain_port(2);
    ASSERT_EQ(out.size(), 1u);
    // srcAddr rewritten to the NAT address 192.168.0.1.
    EXPECT_EQ(out[0].data()[26], 0xc0);
    EXPECT_EQ(out[0].data()[27], 0xa8);
    EXPECT_EQ(out[0].data()[28], 0x00);
    EXPECT_EQ(out[0].data()[29], 0x01);

    // Find the flow's bucket by scanning the binding table through the
    // register read path.
    const std::uint32_t flow_src = core::scenario::host_ip(1);
    int bucket = -1;
    for (int i = 0; i < 64; ++i) {
        Bitvec cell;
        ASSERT_TRUE(dev->read_register("nat_key", i, cell).ok);
        if (cell.to_u64() == flow_src) bucket = i;
    }
    ASSERT_GE(bucket, 0) << "allocated binding not found in nat_key";

    // Install a competing binding in that bucket: a different flow owns it
    // as of t=2000us.  Ours must now wait out the 64us idle timeout.
    std::vector<control::ConfigOp> steal(2);
    steal[0].kind = control::ConfigOp::Kind::write_register;
    steal[0].target = "nat_key";
    steal[0].index = static_cast<std::uint64_t>(bucket);
    steal[0].value = Bitvec(32, 0x0a000063);
    steal[1] = steal[0];
    steal[1].target = "nat_last";
    steal[1].value = Bitvec(48, 2000);
    for (const control::Status& st : dev->apply(steal)) {
        ASSERT_TRUE(st.ok) << st.message;
    }

    pkt.meta.rx_time_ns = 2'063'000;  // age 63us: binding still live -> drop
    dev->inject(pkt);
    EXPECT_TRUE(dev->drain_port(2).empty());

    pkt.meta.rx_time_ns = 2'064'000;  // age 64us: expired -> steal + translate
    dev->inject(pkt);
    out = dev->drain_port(2);
    ASSERT_EQ(out.size(), 1u);
    Bitvec stolen;
    ASSERT_TRUE(dev->read_register("nat_key", bucket, stolen).ok);
    EXPECT_EQ(stolen.to_u64(), flow_src);
}

TEST(StatefulNf, FlowPlansStretchAcrossTheAgingTimeout) {
    const core::SpecGenerator gen({"nat_gateway"});
    const core::Scenario sc = gen.make(7);
    EXPECT_GT(sc.spec.rate_pps, 0.0);
    EXPECT_GE(sc.spec.count, 12u);
    const std::vector<packet::Packet> packets = core::scenario_packets(sc);
    ASSERT_GE(packets.size(), 2u);
    // The slowed timeline must straddle the NAT program's 64us timeout, or
    // the expiry branch would be dead in every scenario.
    EXPECT_GT(packets.back().meta.rx_time_ns - packets.front().meta.rx_time_ns,
              64'000u);
}

// --- state-quirk matrix -------------------------------------------------------

TEST(StatefulNf, CampaignFindsAllThreeStateQuirkFingerprints) {
    const ndb_test::FlagFixture fx = ndb_test::state_quirk_fixture();
    core::CampaignConfig cfg = fixture_config(96);
    core::CampaignEngine engine(cfg);
    const core::CampaignReport report = engine.run();

    const std::uint64_t budget = ndb_test::budget_to_all_seven(report, fx);
    EXPECT_GT(budget, 0u) << "not every state quirk produced a fingerprint\n"
                          << report.to_string();
    EXPECT_LE(budget, cfg.scenarios);

    bool saw_state_kind = false;
    for (const auto& d : report.divergences) {
        if (d.kind == "state") saw_state_kind = true;
        EXPECT_TRUE(d.minimized_reproduces) << d.fingerprint;
        EXPECT_FALSE(d.fingerprint.empty());
    }
    EXPECT_TRUE(saw_state_kind)
        << "state-quirk sweep produced no state-class divergence\n"
        << report.to_string();
}

TEST(StatefulNf, ReportByteIdenticalAcrossThreadCounts) {
    core::CampaignConfig cfg = fixture_config(48);
    core::CampaignEngine one(cfg);
    const std::string a = one.run().to_json();

    cfg.threads = 4;
    core::CampaignEngine four(cfg);
    EXPECT_EQ(a, four.run().to_json());
}

TEST(StatefulNf, FabricReportMatchesInProcessRun) {
    const core::CampaignConfig cfg = fixture_config(24);
    core::CampaignEngine solo(cfg);
    const core::CampaignReport a = solo.run();

    core::FabricConfig f;
    f.campaign = cfg;
    f.workers = 3;
    f.shard_size = 4;
    core::FabricEngine fabric(f);
    const core::CampaignReport b = fabric.run();

    EXPECT_TRUE(b.fabric_enabled);
    EXPECT_EQ(b.fabric.workers, 3u);
    EXPECT_EQ(a.to_json(), json_without_fabric(b));
}

}  // namespace
