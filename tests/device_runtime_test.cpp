// Management-plane round trips: RuntimeClient -> WireChannel -> wire frames
// -> ControlServer -> dispatch -> device.  Proves the paper's "dedicated
// interface" works end-to-end as messages, not as direct calls, including
// batches above the wire caps; plus the device's own data-path accounting,
// traced injects, digest ring, egress timing and backend registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "control/transport.h"
#include "control/wire.h"
#include "core/tools.h"
#include "p4/compiler.h"
#include "p4/programs.h"
#include "target/device.h"
#include "util/strings.h"

namespace {

using namespace ndb;

// A host-side client reaching the device through the wire protocol over a
// clean loopback link.
struct Rig {
    std::unique_ptr<target::Device> device = target::make_device("reference");
    control::LoopbackTransport transport{*device};
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

    // One request carries every op; each bad op fails on its own and the
    // good one still lands.
    std::vector<control::ConfigOp> ops(4);
    for (control::ConfigOp& op : ops) {
        op.target = "dmac";
        op.entry.key_values = {util::Bitvec(48, 1)};
        op.entry.action = "forward";
        op.entry.action_args = {util::Bitvec(9, 1)};
    }
    ops[0].target = "no_such_table";
    ops[1].entry.action = "no_such_action";
    ops[2].entry.action_args.clear();  // wrong arity
    const std::vector<control::Status> statuses = rig.client.apply(ops);
    EXPECT_EQ(rig.channel.stats().requests, 1u);
    ASSERT_EQ(statuses.size(), 4u);
    EXPECT_FALSE(statuses[0]);
    EXPECT_NE(statuses[0].message.find("no_such_table"), std::string::npos)
        << statuses[0].message;
    EXPECT_FALSE(statuses[1]);
    EXPECT_FALSE(statuses[2]);
    EXPECT_TRUE(statuses[3]) << statuses[3].message;

    util::Bitvec reg_out;
    EXPECT_FALSE(rig.client.read_register("no_such_register", 0, reg_out));
}

TEST(DeviceRuntime, BatchedEntriesDoNotInheritFieldsFromEarlierOps) {
    // The device translates every add_entry into one reused entry; no mask,
    // priority or argument may leak from one op of a batch into the next.
    Rig rig;
    rig.load(p4::programs::wide_match(), "wide_match");

    const auto backup = [](std::uint32_t dst, int priority) {
        control::ConfigOp op;
        op.target = "backup";
        op.entry.key_values = {util::Bitvec(32, dst)};
        op.entry.priority = priority;
        op.entry.action = "set_port";
        return op;
    };
    std::vector<control::ConfigOp> ops;
    ops.push_back(backup(0x0a000000, 1));  // 10.0.0.0/8
    ops.back().entry.key_masks = {util::Bitvec(32, 0xff000000)};
    ops.back().entry.action_args = {util::Bitvec(9, 2)};
    ops.push_back({});  // flow_wide takes five keys, not four
    ops.back().target = "flow_wide";
    ops.back().entry.key_values = {util::Bitvec(48, 2), util::Bitvec(48, 1),
                                   util::Bitvec(32, 0x0a000001),
                                   util::Bitvec(32, 0x0a000005)};
    ops.back().entry.action = "set_port";
    ops.back().entry.action_args = {util::Bitvec(9, 1)};
    ops.push_back(backup(0x0a000005, 2));  // exact 10.0.0.5
    ops.back().entry.action_args = {util::Bitvec(9, 3)};
    ops.push_back(backup(0x0a000009, 3));  // no argument for set_port

    const std::uint64_t requests = rig.channel.stats().requests;
    const std::vector<control::Status> statuses = rig.client.apply(ops);
    EXPECT_EQ(rig.channel.stats().requests - requests, 1u);
    ASSERT_EQ(statuses.size(), 4u);
    EXPECT_TRUE(statuses[0]) << statuses[0].message;
    EXPECT_FALSE(statuses[1]);
    EXPECT_NE(statuses[1].message.find("key(s)"), std::string::npos)
        << statuses[1].message;
    EXPECT_TRUE(statuses[2]) << statuses[2].message;
    EXPECT_FALSE(statuses[3]);
    EXPECT_NE(statuses[3].message.find("arg(s)"), std::string::npos)
        << statuses[3].message;

    const auto egress_of = [&rig](int host) {
        packet::Packet pkt = packet::PacketBuilder()
                                 .ethernet(core::scenario::host_mac(2),
                                           core::scenario::host_mac(1))
                                 .ipv4_raw(core::scenario::host_ip(1),
                                           core::scenario::host_ip(host),
                                           packet::kIpProtoUdp, 64)
                                 .udp(5000, 7000)
                                 .payload_size(64)
                                 .build();
        pkt.meta.ingress_port = 0;
        rig.device->inject(pkt);
        int port = -1;
        for (int p = 0; p < rig.device->config().num_ports; ++p) {
            if (!rig.device->drain_port(static_cast<std::uint32_t>(p)).empty()) port = p;
        }
        return port;
    };
    EXPECT_EQ(egress_of(7), 2);  // only the /8 row matches
    EXPECT_EQ(egress_of(5), 3);  // the exact row wins at priority 2

    const control::StatusSnapshot snap = rig.client.snapshot();
    const auto table = std::find_if(snap.tables.begin(), snap.tables.end(),
                                    [](const control::TableStatus& t) {
                                        return t.name == "backup";
                                    });
    ASSERT_NE(table, snap.tables.end());
    EXPECT_EQ(table->entries, 2u);
}

TEST(DeviceRuntime, OverCapBatchesSplitAndOversizeRequestsFailFast) {
    Rig rig;
    rig.load(p4::programs::wide_match(), "wide_match");

    // More ops than one request may carry (wire::kMaxSequenceItems): the
    // client sends them as consecutive requests, in order.
    std::vector<control::ConfigOp> inserts(10'000);
    for (std::size_t i = 0; i < inserts.size(); ++i) {
        control::ConfigOp& op = inserts[i];
        op.target = "flow_wide";
        op.entry.key_values = {util::Bitvec(48, 2), util::Bitvec(48, 1),
                               util::Bitvec(32, 0x0a000001),
                               util::Bitvec(32, 0x0b000000 + i),
                               util::Bitvec(8, 17)};
        op.entry.action = "set_port";
        op.entry.action_args = {util::Bitvec(9, 1)};
    }
    const std::uint64_t requests = rig.channel.stats().requests;
    const std::vector<control::Status> statuses = rig.client.apply(inserts);
    EXPECT_EQ(rig.channel.stats().requests - requests, 3u);
    ASSERT_EQ(statuses.size(), inserts.size());
    for (std::size_t i = 0; i < statuses.size(); ++i) {
        ASSERT_TRUE(statuses[i]) << "op " << i << ": " << statuses[i].message;
    }
    const control::StatusSnapshot snap = rig.client.snapshot();
    const auto wide = std::find_if(snap.tables.begin(), snap.tables.end(),
                                   [](const control::TableStatus& t) {
                                       return t.name == "flow_wide";
                                   });
    ASSERT_NE(wide, snap.tables.end());
    EXPECT_EQ(wide->entries, 10'000u);

    // A request above the frame payload cap would be dropped by the peer,
    // so it is never sent: every op fails at once, naming the cap.
    std::vector<control::ConfigOp> oversized(9);
    for (control::ConfigOp& op : oversized) {
        op.kind = control::ConfigOp::Kind::write_register;
        op.target = "no_such_register";
        op.value = util::Bitvec(1 << 20);  // 128 KiB on the wire
    }
    const std::uint64_t frames = rig.channel.stats().frames_sent;
    const std::vector<control::Status> failed = rig.client.apply(oversized);
    ASSERT_EQ(failed.size(), oversized.size());
    const std::string cap = std::to_string(control::wire::kMaxPayloadBytes);
    for (const control::Status& st : failed) {
        EXPECT_FALSE(st);
        EXPECT_TRUE(util::starts_with(st.message, "wire:")) << st.message;
        EXPECT_NE(st.message.find(cap), std::string::npos) << st.message;
    }
    EXPECT_EQ(rig.channel.stats().frames_sent, frames);
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
    control::ConfigOp write;
    write.kind = control::ConfigOp::Kind::write_register;
    write.target = "port_pkts";
    write.index = 1;
    write.value = util::Bitvec(48, 41);
    ASSERT_TRUE(rig.client.apply({&write, 1}).front());
    rig.device->inject(pkt);
    ASSERT_TRUE(rig.client.read_register("port_pkts", 1, count));
    EXPECT_EQ(count.to_u64(), 42u);

    // Out-of-range indices are rejected, not silently absorbed.
    EXPECT_FALSE(rig.client.read_register("port_pkts", 1u << 20, count));
}

TEST(DeviceRuntime, MeterRatesMustBeFiniteAndNonNegative) {
    Rig rig;
    rig.load(p4::programs::metered_policer(), "metered_policer");

    // Each bad value in each rate, then one good op on index 1.
    const double bad[] = {std::numeric_limits<double>::quiet_NaN(), -1.0,
                          std::numeric_limits<double>::infinity()};
    std::vector<control::ConfigOp> ops;
    for (const bool committed : {true, false}) {
        for (const double value : bad) {
            control::ConfigOp op;
            op.kind = control::ConfigOp::Kind::configure_meter;
            op.target = "port_meter";
            op.index = 0;
            op.meter = {1e6, 1500, 2e6, 3000};
            if (committed) {
                op.meter.committed_rate_bps = value;
            } else {
                op.meter.excess_rate_bps = value;
            }
            ops.push_back(op);
        }
    }
    control::ConfigOp good;
    good.kind = control::ConfigOp::Kind::configure_meter;
    good.target = "port_meter";
    good.index = 1;
    good.meter = {1e6, 1500, 2e6, 3000};
    ops.push_back(good);

    const std::vector<control::Status> statuses = rig.client.apply(ops);
    ASSERT_EQ(statuses.size(), 7u);
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_FALSE(statuses[i]) << "bad op #" << i << " was accepted";
        EXPECT_NE(statuses[i].message.find("rate"), std::string::npos)
            << statuses[i].message;
    }
    EXPECT_TRUE(statuses[6]) << statuses[6].message;

    // Only the good op configured a cell.
    const control::StatusSnapshot snap = rig.client.snapshot();
    const auto meter = std::find_if(
        snap.externs.begin(), snap.externs.end(),
        [](const control::ExternStatus& e) { return e.name == "port_meter"; });
    ASSERT_NE(meter, snap.externs.end());
    EXPECT_EQ(meter->unconfigured_meters, meter->cells - 1);
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
    auto device = std::make_unique<target::Device>(one_port);
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

TEST(DeviceRuntime, DigestRingStaysWithinItsCapAndTheDeviceForwards) {
    const auto prog = p4::compile_source(p4::programs::passthrough(), "passthrough");
    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.ingress_port = 0;

    auto device = target::make_device("reference");
    ASSERT_TRUE(device->load(*prog));
    device->set_digests_enabled(true);
    constexpr std::size_t kSent = target::kMaxDigestRecords + 10;
    std::size_t forwarded = 0;
    for (std::size_t i = 0; i < kSent; ++i) {
        device->inject(pkt);
        forwarded += device->drain_port(1).size();
    }
    EXPECT_FALSE(device->digest_records().empty());
    EXPECT_LE(device->digest_records().size(), target::kMaxDigestRecords);
    EXPECT_EQ(forwarded, kSent);
    EXPECT_EQ(device->snapshot().stages.forwarded, kSent);
}

TEST(DeviceRuntime, EgressStampAddsPipelineCycles) {
    // Forwarded packets leave stamped tx = rx + cycles * kNsPerCycle, with
    // at least the deparser cycle, so latency is observable from the ports.
    auto device = target::make_device("reference");
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

TEST(DeviceRuntime, InjectBorrowsTheStimulusAndStampsItsOwnMeta) {
    // inject() reads a const stimulus: the device stamps rx time into its
    // own copy of the meta, which the output carries, and the caller's
    // packet comes back exactly as it went in.  trace() injects the same
    // way and also returns the output.
    auto device = target::make_device("reference");
    const auto prog = p4::compile_source(p4::programs::passthrough(), "passthrough");
    ASSERT_TRUE(device->load(*prog));

    packet::Packet built = core::scenario::ipv4_udp_packet();
    built.meta.ingress_port = 0;
    built.meta.id = 7;
    const packet::Packet stimulus = built;
    ASSERT_EQ(stimulus.meta.rx_time_ns, 0u);

    const std::uint64_t stamp = device->now_ns();
    const dataplane::PipelineResult traced = device->trace(stimulus);
    EXPECT_EQ(device->now_ns(), stamp + target::kNsPerPacket);

    ASSERT_EQ(traced.disposition, dataplane::Disposition::forwarded);
    EXPECT_EQ(traced.output.meta.rx_time_ns, stamp);
    EXPECT_EQ(traced.output.meta.id, 7u);
    EXPECT_EQ(traced.output.meta.tx_time_ns,
              stamp + traced.cycles * target::kNsPerCycle);
    ASSERT_TRUE(device->taps().has(dataplane::Stage::parser));

    const auto out = device->drain_port(1);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].meta.rx_time_ns, stamp);
    EXPECT_EQ(out[0].meta.id, 7u);
    EXPECT_EQ(out[0].meta.tx_time_ns, traced.output.meta.tx_time_ns);
    EXPECT_TRUE(out[0].same_bytes(traced.output));

    device->inject(stimulus);
    const auto again = device->drain_port(1);
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].meta.rx_time_ns, stamp + target::kNsPerPacket);
    EXPECT_TRUE(again[0].same_bytes(traced.output));

    EXPECT_TRUE(stimulus.same_bytes(built));
    EXPECT_EQ(stimulus.meta.ingress_port, 0u);
    EXPECT_EQ(stimulus.meta.egress_port, 0u);
    EXPECT_EQ(stimulus.meta.rx_time_ns, 0u);
    EXPECT_EQ(stimulus.meta.tx_time_ns, 0u);
    EXPECT_EQ(stimulus.meta.id, 7u);
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

    // An explicit all-defaults override yields a quirk-free sdnet device:
    // "sdnet" has one meaning, whatever the override.
    auto clean = target::make_device("sdnet", dataplane::Quirks{});
    ASSERT_NE(clean, nullptr);
    EXPECT_FALSE(clean->config().quirks.any());
    EXPECT_EQ(clean->config().backend, "sdnet");

    // Builtins cannot be shadowed, even by the very first registration, and
    // a config without a name is no backend.
    target::DeviceConfig impostor;
    impostor.backend = "sdnet";
    EXPECT_FALSE(target::register_backend(impostor));
    EXPECT_TRUE(target::make_device("sdnet")->config().quirks.reject_as_accept);
    target::DeviceConfig nameless;
    nameless.backend.clear();
    EXPECT_FALSE(target::register_backend(nameless));

    // Third-party backends register a config and build by name, keeping
    // its name, its ports and its catalogue unless overridden.
    target::DeviceConfig tofino;
    tofino.backend = "tofino_sim";
    tofino.num_ports = 32;
    tofino.quirks.skip_checksum_update = true;
    EXPECT_TRUE(target::register_backend(tofino));
    EXPECT_FALSE(target::register_backend(tofino));
    auto custom = target::make_device("tofino_sim");
    ASSERT_NE(custom, nullptr);
    EXPECT_EQ(custom->config().num_ports, 32);
    EXPECT_EQ(custom->config().backend, "tofino_sim");
    EXPECT_TRUE(custom->config().quirks.skip_checksum_update);
    auto faithful = target::make_device("tofino_sim", dataplane::Quirks{});
    ASSERT_NE(faithful, nullptr);
    EXPECT_EQ(faithful->config().num_ports, 32);
    EXPECT_FALSE(faithful->config().quirks.any());
    const auto after = target::registered_backends();
    EXPECT_NE(std::find(after.begin(), after.end(), "tofino_sim"), after.end());
    EXPECT_TRUE(std::is_sorted(after.begin(), after.end()));

    // The backend name salts coverage: an unnamed config is the reference.
    EXPECT_EQ(target::DeviceConfig{}.backend, "reference");
    EXPECT_EQ(target::make_device("reference")->config().backend, "reference");
    EXPECT_EQ(std::make_unique<target::Device>(target::DeviceConfig{})
                  ->coverage_salt(),
              target::make_device("reference")->coverage_salt());
    EXPECT_NE(faithful->coverage_salt(),
              target::make_device("reference")->coverage_salt());

    // The deterministic clock starts at the epoch and only moves on traffic.
    auto dev = target::make_device("reference");
    const std::uint64_t t0 = dev->now_ns();
    EXPECT_EQ(t0, target::kClockEpochNs);
    EXPECT_EQ(dev->now_ns(), t0);
}

}  // namespace
