// Management-plane round trips: RuntimeClient -> WireChannel -> wire frames
// -> ControlServer -> dispatch -> device.  Proves the paper's "dedicated
// interface" works end-to-end as messages, not as direct calls; plus the
// device's own data-path accounting, tap ring, egress timing and backend
// registry.
#include <gtest/gtest.h>

#include "control/transport.h"
#include "core/tools.h"
#include "p4/compiler.h"
#include "p4/programs.h"
#include "target/device.h"

namespace {

using namespace ndb;

// A host-side client reaching the device through the wire protocol over a
// clean loopback link.
struct Rig {
    std::unique_ptr<target::Device> device = target::make_reference_device();
    control::LoopbackTransport transport{device->runtime()};
    control::WireChannel channel{transport};
    control::RuntimeClient client{channel};

    void load(std::string_view source, std::string name) {
        const auto prog = p4::compile_source(source, std::move(name));
        ASSERT_TRUE(device->load(*prog));
    }
};

TEST(DeviceRuntime, AddEntryProgramsTheDataPath) {
    Rig rig;
    rig.load(p4::programs::l2_switch(), "l2_switch");

    // Default action drops: nothing comes out before programming.
    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.ingress_port = 0;
    rig.device->inject(pkt);
    for (int port = 0; port < rig.device->config().num_ports; ++port) {
        EXPECT_EQ(rig.device->drain_port(static_cast<std::uint32_t>(port)).size(), 0u);
    }

    ASSERT_TRUE(core::scenario::add_l2_entry(rig.client, core::scenario::host_mac(2), 3));
    EXPECT_EQ(rig.channel.stats().requests, 1u);

    rig.device->inject(pkt);
    auto out = rig.device->drain_port(3);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].same_bytes(pkt));
}

TEST(DeviceRuntime, BadRequestsFailOverTheChannel) {
    Rig rig;
    rig.load(p4::programs::l2_switch(), "l2_switch");

    control::EntrySpec entry;
    entry.key_values = {util::Bitvec(48, 1)};
    entry.action = "forward";
    entry.action_args = {util::Bitvec(9, 1)};

    EXPECT_FALSE(rig.client.add_entry("no_such_table", entry));
    entry.action = "no_such_action";
    EXPECT_FALSE(rig.client.add_entry("dmac", entry));
    entry.action = "forward";
    entry.action_args.clear();  // wrong arity
    EXPECT_FALSE(rig.client.add_entry("dmac", entry));

    util::Bitvec reg_out;
    EXPECT_FALSE(rig.client.read_register("no_such_register", 0, reg_out));
}

TEST(DeviceRuntime, RegisterCounterAndSnapshotRoundTrip) {
    Rig rig;
    rig.load(p4::programs::stats_monitor(), "stats_monitor");

    // stats_monitor bumps port_pkts[ingress_port] and port_bytes[ingress_port],
    // then forwards everything to port 2.
    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.ingress_port = 1;
    for (int i = 0; i < 3; ++i) rig.device->inject(pkt);

    util::Bitvec count;
    ASSERT_TRUE(rig.client.read_register("port_pkts", 1, count));
    EXPECT_EQ(count.to_u64(), 3u);

    control::CounterValue counter;
    ASSERT_TRUE(rig.client.read_counter("port_bytes", 1, counter));
    EXPECT_EQ(counter.packets, 3u);

    const control::StatusSnapshot snap = rig.client.snapshot();
    EXPECT_EQ(snap.stages.parser_in, 3u);
    EXPECT_EQ(snap.stages.forwarded, 3u);
    ASSERT_GT(snap.ports.size(), 2u);
    EXPECT_EQ(snap.ports[1].rx_packets, 3u);
    EXPECT_EQ(snap.ports[2].tx_packets, 3u);
    EXPECT_EQ(snap.unaccounted_packets(), 0);

    // Host-side writes land in the data plane's storage.
    ASSERT_TRUE(rig.client.write_register("port_pkts", 1, util::Bitvec(48, 41)));
    rig.device->inject(pkt);
    ASSERT_TRUE(rig.client.read_register("port_pkts", 1, count));
    EXPECT_EQ(count.to_u64(), 42u);

    // Out-of-range indices are rejected, not silently absorbed.
    EXPECT_FALSE(rig.client.read_register("port_pkts", 1u << 20, count));
}

TEST(DeviceRuntime, ResetStateClearsDynamicStateKeepsConfig) {
    Rig rig;
    rig.load(p4::programs::l2_switch(), "l2_switch");
    ASSERT_TRUE(core::scenario::add_l2_entry(rig.client, core::scenario::host_mac(2), 2));

    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.ingress_port = 0;
    rig.device->inject(pkt);
    ASSERT_TRUE(rig.client.reset_state());

    control::StatusSnapshot snap = rig.client.snapshot();
    EXPECT_EQ(snap.stages.parser_in, 0u);
    EXPECT_EQ(snap.ports[0].rx_packets, 0u);
    ASSERT_FALSE(snap.tables.empty());
    EXPECT_EQ(snap.tables[0].hits, 0u);
    // The installed entry survives the soft reset.
    EXPECT_EQ(snap.tables[0].entries, 1u);
    rig.device->inject(pkt);
    EXPECT_EQ(rig.device->drain_port(2).size(), 1u);
}

TEST(DeviceRuntime, MisdirectedPacketsAreCountedFirstClass) {
    // passthrough forwards everything to port 1; a one-port device has no
    // port 1, so the packet is forwarded by the pipeline yet never reaches a
    // queue.  The snapshot must name that loss instead of hiding it.
    target::DeviceConfig one_port;
    one_port.num_ports = 1;
    auto device = target::make_reference_device(one_port);
    const auto prog = p4::compile_source(p4::programs::passthrough(), "passthrough");
    ASSERT_TRUE(device->load(*prog));

    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.ingress_port = 0;
    device->inject(pkt);
    EXPECT_EQ(device->drain_port(0).size(), 0u);

    const control::StatusSnapshot snap = device->snapshot();
    EXPECT_EQ(snap.stages.forwarded, 1u);
    EXPECT_EQ(snap.misdirected, 1u);
    EXPECT_EQ(snap.unaccounted_packets(), 1);
    EXPECT_NE(snap.to_string().find("misdirected=1"), std::string::npos);

    // reset_state clears it like every other dynamic counter.
    ASSERT_TRUE(device->reset_state());
    EXPECT_EQ(device->snapshot().misdirected, 0u);
}

TEST(DeviceRuntime, TapRingKeepsNewestRecordsAndHonoursZeroCap) {
    const auto prog = p4::compile_source(p4::programs::passthrough(), "passthrough");
    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.ingress_port = 0;

    target::DeviceConfig small;
    small.max_tap_records = 4;
    auto device = target::make_reference_device(small);
    ASSERT_TRUE(device->load(*prog));
    device->set_taps_enabled(true);
    for (std::uint64_t seq = 1; seq <= 10; ++seq) {
        pkt.meta.id = seq;
        device->inject(pkt);
    }
    ASSERT_FALSE(device->tap_records().empty());
    EXPECT_LE(device->tap_records().size(), 4u);
    // The newest record survives eviction (the localizer reads back()).
    EXPECT_EQ(device->tap_records().back().input.meta.id, 10u);

    target::DeviceConfig none;
    none.max_tap_records = 0;
    auto quiet = target::make_reference_device(none);
    ASSERT_TRUE(quiet->load(*prog));
    quiet->set_taps_enabled(true);
    quiet->inject(pkt);  // must not crash or record
    EXPECT_TRUE(quiet->tap_records().empty());
    EXPECT_EQ(quiet->drain_port(1).size(), 1u);
}

TEST(DeviceRuntime, EgressStampAddsPipelineCycles) {
    // Forwarded packets leave stamped tx = rx + cycles * kNsPerCycle, with
    // at least the deparser cycle, so latency is observable from the ports.
    auto device = target::make_reference_device();
    const auto prog = p4::compile_source(p4::programs::passthrough(), "passthrough");
    ASSERT_TRUE(device->load(*prog));

    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.ingress_port = 0;
    for (int i = 0; i < 4; ++i) device->inject(pkt);
    const auto out = device->drain_port(1);
    ASSERT_EQ(out.size(), 4u);
    for (const packet::Packet& sent : out) {
        EXPECT_GE(sent.meta.rx_time_ns, target::kClockEpochNs);
        ASSERT_GT(sent.meta.tx_time_ns, sent.meta.rx_time_ns);
        const std::uint64_t latency = sent.meta.tx_time_ns - sent.meta.rx_time_ns;
        EXPECT_EQ(latency % target::kNsPerCycle, 0u) << latency;
    }
}

TEST(DeviceRuntime, BackendRegistryListsAndBuilds) {
    const auto names = target::registered_backends();
    ASSERT_GE(names.size(), 2u);
    EXPECT_NE(std::find(names.begin(), names.end(), "reference"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "sdnet"), names.end());

    EXPECT_EQ(target::make_device("no_such_backend"), nullptr);

    auto quirky = target::make_device("sdnet");
    ASSERT_NE(quirky, nullptr);
    EXPECT_TRUE(quirky->config().quirks.reject_as_accept);

    // Override: an sdnet device with only the depth limit active.
    dataplane::Quirks only_depth;
    only_depth.parser_depth_limit = 2;
    auto shallow = target::make_device("sdnet", only_depth);
    ASSERT_NE(shallow, nullptr);
    EXPECT_FALSE(shallow->config().quirks.reject_as_accept);
    EXPECT_EQ(shallow->config().quirks.parser_depth_limit, 2);

    // An explicit all-defaults override yields a quirk-free sdnet device.
    auto clean = target::make_device("sdnet", dataplane::Quirks{});
    ASSERT_NE(clean, nullptr);
    EXPECT_FALSE(clean->config().quirks.any());

    // Builtins cannot be shadowed, even by the very first registration.
    EXPECT_FALSE(target::register_backend(
        "sdnet", [](std::optional<dataplane::Quirks>) {
            return target::make_reference_device();
        }));
    EXPECT_TRUE(target::make_device("sdnet")->config().quirks.reject_as_accept);

    // Third-party backends register and build by name.
    EXPECT_TRUE(target::register_backend(
        "tofino_sim", [](std::optional<dataplane::Quirks> q) {
            target::DeviceConfig cfg;
            cfg.backend = "tofino_sim";
            cfg.num_ports = 32;
            if (q) cfg.quirks = *q;
            return target::make_reference_device(std::move(cfg));
        }));
    auto custom = target::make_device("tofino_sim");
    ASSERT_NE(custom, nullptr);
    EXPECT_EQ(custom->config().num_ports, 32);
    // The factory's backend name survives make_reference_device.
    EXPECT_EQ(custom->config().backend, "tofino_sim");

    // The deterministic clock starts at the epoch and only moves on traffic.
    auto dev = target::make_device("reference");
    const std::uint64_t t0 = dev->now_ns();
    EXPECT_EQ(t0, target::kClockEpochNs);
    EXPECT_EQ(dev->now_ns(), t0);
}

}  // namespace
