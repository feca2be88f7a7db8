// Batched config delivery: the device's batch core hands each run of
// add_entry ops on one table to the table's engine in chunks, and must leave
// the device exactly as applying the same ops one at a time does.  Checked on
// the reference device and on two DUTs whose tables behave differently
// (table_size_clamp = 2 fills every table at two entries;
// ternary_priority_inverted reverses the TCAM order), over seeded op lists
// that mix every way an op can be rejected with the other op kinds.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "control/config.h"
#include "dataplane/quirks.h"
#include "p4/compiler.h"
#include "packet/packet.h"
#include "target/device.h"
#include "util/bitvec.h"
#include "util/random.h"

namespace {

using namespace ndb;
using control::ConfigOp;
using util::Bitvec;
using util::Rng;

// One table per match kind, all keyed on the Ethernet header, so a packet
// carrying an entry's key looks it up in its table (and in the other two).
// Every action writes its arguments into the packet or picks its egress
// port, so the output shows which entry won.
constexpr std::string_view kProgram = R"P4(
header ethernet_t {
    bit<48> dstAddr;
    bit<48> srcAddr;
    bit<16> etherType;
}

struct headers { ethernet_t ethernet; }
struct metadata {
    bit<32> seen;
    bit<2> color;
}

parser MyParser(packet_in pkt, out headers hdr, inout metadata meta,
                inout standard_metadata_t smeta) {
    state start {
        pkt.extract(hdr.ethernet);
        transition accept;
    }
}

control MyIngress(inout headers hdr, inout metadata meta,
                  inout standard_metadata_t smeta) {
    register<bit<32>>(8) marks;
    meter(8) policer;
    action drop() {
        mark_to_drop(smeta);
    }
    action forward(bit<9> port) {
        smeta.egress_spec = port;
    }
    action retag(bit<16> type, bit<9> port) {
        hdr.ethernet.etherType = type;
        smeta.egress_spec = port;
    }
    action rewrite_src(bit<48> src) {
        hdr.ethernet.srcAddr = src;
    }
    table by_dst {
        key = { hdr.ethernet.dstAddr : exact; }
        actions = { forward; retag; drop; }
        size = 96;
        default_action = drop();
    }
    table by_src {
        key = { hdr.ethernet.srcAddr : lpm; }
        actions = { rewrite_src; NoAction; }
        size = 64;
        default_action = NoAction();
    }
    table by_type {
        key = {
            hdr.ethernet.etherType : ternary;
            hdr.ethernet.dstAddr   : ternary;
        }
        actions = { retag; NoAction; }
        size = 64;
        default_action = NoAction();
    }
    apply {
        by_type.apply();
        by_src.apply();
        by_dst.apply();
        marks.read(meta.seen, smeta.ingress_port);
        marks.write(smeta.ingress_port, meta.seen + 1);
        policer.execute(smeta.ingress_port, meta.color);
    }
}

control MyDeparser(packet_out pkt, in headers hdr) {
    apply {
        pkt.emit(hdr.ethernet);
    }
}

NdpSwitch(MyParser(), MyIngress(), MyDeparser()) main;
)P4";

constexpr std::uint64_t kMacBase = 0x020000000000ull;
constexpr std::array<const char*, 3> kTables = {"by_dst", "by_src", "by_type"};

// Small value spaces, so entries collide (duplicates) and fill tables.
Bitvec dst_key(Rng& rng) { return Bitvec(48, kMacBase + rng.next_below(128)); }

// A valid add_entry op on `table`.
ConfigOp valid_entry(Rng& rng, const std::string& table) {
    ConfigOp op;
    op.target = table;
    if (table == "by_dst") {
        op.entry.key_values = {dst_key(rng)};
        if (rng.next_bool(0.5)) {
            op.entry.action = "forward";
            op.entry.action_args = {Bitvec(9, rng.next_below(4))};
        } else {
            op.entry.action = "retag";
            op.entry.action_args = {Bitvec(16, 0x9000 + rng.next_below(16)),
                                    Bitvec(9, rng.next_below(4))};
        }
    } else if (table == "by_src") {
        op.entry.key_values = {Bitvec(48, kMacBase + (rng.next_below(64) << 4))};
        op.entry.prefix_len = static_cast<int>(40 + rng.next_below(9));
        op.entry.action = "rewrite_src";
        op.entry.action_args = {Bitvec(48, rng.next_below(1u << 20))};
    } else {
        op.entry.key_values = {Bitvec(16, 0x0800 + rng.next_below(4)), dst_key(rng)};
        op.entry.key_masks = {Bitvec(16, rng.next_bool(0.5) ? 0xffff : 0xff00),
                              rng.next_bool(0.5) ? Bitvec::ones(48) : Bitvec(48, 0)};
        op.entry.priority = static_cast<int>(rng.next_below(6));
        op.entry.action = "retag";
        op.entry.action_args = {Bitvec(16, 0xa000 + rng.next_below(16)),
                                Bitvec(9, rng.next_below(4))};
    }
    return op;
}

// An add_entry op on `table` that fails translation, one way or another.
ConfigOp broken_entry(Rng& rng, const std::string& table) {
    ConfigOp op = valid_entry(rng, table);
    switch (rng.next_below(6)) {
        case 0: op.entry.key_values.push_back(Bitvec(8, 1)); break;  // key count
        case 1: op.entry.action = "no_such_action"; break;
        case 2: op.entry.action = table == "by_src" ? "forward" : "rewrite_src"; break;
        case 3: op.entry.action_args.push_back(Bitvec(9, 1)); break;  // arg count
        case 4: op.entry.action.clear(); break;
        default: op.entry.key_masks = {Bitvec(16, 0xffff)}; break;  // mask count
    }
    return op;
}

// One op of another kind, accepted or not.
ConfigOp other_op(Rng& rng) {
    ConfigOp op;
    switch (rng.next_below(3)) {
        case 0:
            op.kind = ConfigOp::Kind::set_default_action;
            op.target = kTables[rng.next_below(3)];
            op.action = rng.next_bool(0.7) ? "NoAction" : "retag";
            if (op.target == "by_dst") op.action = rng.next_bool(0.5) ? "drop" : "forward";
            if (op.action == "forward") op.action_args = {Bitvec(9, rng.next_below(4))};
            if (op.action == "retag") {
                op.action_args = {Bitvec(16, 0xb000), Bitvec(9, rng.next_below(4))};
            }
            if (rng.next_bool(0.2)) op.target = "no_such_table";
            break;
        case 1:
            op.kind = ConfigOp::Kind::write_register;
            op.target = rng.next_bool(0.85) ? "marks" : "policer";  // wrong kind
            op.index = rng.next_below(10);                          // 8 and 9 out of range
            op.value = Bitvec(32, rng.next_u64());
            break;
        default:
            op.kind = ConfigOp::Kind::configure_meter;
            op.target = rng.next_bool(0.85) ? "policer" : "marks";
            op.index = rng.next_below(10);
            op.meter.committed_rate_bps = rng.next_bool(0.8)
                                              ? 1000.0 * static_cast<double>(rng.next_below(9))
                                              : std::numeric_limits<double>::quiet_NaN();
            op.meter.committed_burst = 1500;
            op.meter.excess_rate_bps = rng.next_bool(0.9) ? 4000.0 : -1.0;
            op.meter.excess_burst = 3000;
            break;
    }
    return op;
}

// About 700 ops: runs of 1-150 add_entry ops on one table (crossing the
// 64-entry chunk), single entries that alternate tables op by op, and the
// other op kinds between them.  One entry in eight fails translation and a
// run now and then targets a table the program lacks.
std::vector<ConfigOp> make_ops(Rng& rng) {
    std::vector<ConfigOp> ops;
    while (ops.size() < 700) {
        const double pick = rng.next_double();
        if (pick < 0.6) {
            std::string table = kTables[rng.next_below(3)];
            if (rng.next_bool(0.03)) table = "no_such_table";
            const std::uint64_t run = 1 + rng.next_below(150);
            for (std::uint64_t i = 0; i < run; ++i) {
                if (i > 0 && rng.next_bool(0.1)) {
                    // The previous op's key again: a duplicate within the
                    // chunk when that op was accepted.
                    ConfigOp again = valid_entry(rng, table);
                    again.entry.key_values = ops.back().entry.key_values;
                    again.entry.key_masks = ops.back().entry.key_masks;
                    again.entry.prefix_len = ops.back().entry.prefix_len;
                    ops.push_back(std::move(again));
                    continue;
                }
                ops.push_back(rng.next_bool(0.125) ? broken_entry(rng, table)
                                                   : valid_entry(rng, table));
            }
        } else if (pick < 0.8) {
            for (std::uint64_t i = 0, n = 2 + rng.next_below(12); i < n; ++i) {
                ops.push_back(valid_entry(rng, kTables[i % kTables.size()]));
            }
        } else {
            ops.push_back(other_op(rng));
        }
    }
    return ops;
}

// The packet that carries `op`'s key in its table's fields; the other
// fields come from `rng`.
packet::Packet packet_for(const ConfigOp& op, Rng& rng) {
    std::uint64_t dst = kMacBase + rng.next_below(256);
    std::uint64_t src = kMacBase + rng.next_below(2048);
    std::uint64_t type = (rng.next_bool(0.5) ? 0x0800 : 0x8800) + rng.next_below(8);
    if (op.target == "by_dst") dst = op.entry.key_values[0].to_u64();
    if (op.target == "by_src") src = op.entry.key_values[0].to_u64();
    if (op.target == "by_type") {
        type = op.entry.key_values[0].to_u64();
        dst = op.entry.key_values[1].to_u64();
    }
    std::vector<std::uint8_t> bytes(64, 0x5a);
    for (int i = 0; i < 6; ++i) {
        bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(dst >> (40 - 8 * i));
        bytes[static_cast<std::size_t>(6 + i)] =
            static_cast<std::uint8_t>(src >> (40 - 8 * i));
    }
    bytes[12] = static_cast<std::uint8_t>(type >> 8);
    bytes[13] = static_cast<std::uint8_t>(type);
    packet::Packet pkt{std::span<const std::uint8_t>(bytes)};
    pkt.meta.ingress_port = static_cast<std::uint32_t>(rng.next_below(4));
    return pkt;
}

// What a device did with one packet: each port's output bytes.
std::string outputs(target::Device& dev) {
    std::string out;
    for (int port = 0; port < dev.config().num_ports; ++port) {
        for (const packet::Packet& pkt : dev.drain_port(static_cast<std::uint32_t>(port))) {
            out += std::to_string(port) + ":";
            for (const std::uint8_t byte : pkt.data()) out += std::to_string(byte) + ",";
            out += ";";
        }
    }
    return out;
}

struct DeviceKind {
    const char* label;
    dataplane::Quirks quirks;
};

std::vector<DeviceKind> device_kinds() {
    dataplane::Quirks clamp;
    clamp.table_size_clamp = 2;
    dataplane::Quirks inverted;
    inverted.ternary_priority_inverted = true;
    return {{"reference", {}}, {"table_size_clamp=2", clamp},
            {"ternary_priority_inverted", inverted}};
}

TEST(ConfigBatch, BatchedApplyEqualsOpByOpApply) {
    const std::shared_ptr<const p4::ir::Program> image =
        p4::compile_source(kProgram, "config_batch");
    for (const DeviceKind& kind : device_kinds()) {
        SCOPED_TRACE(kind.label);
        // Over the six lists, every outcome the batch core reports.
        std::size_t ok = 0, duplicate = 0, full = 0, failed = 0;
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            SCOPED_TRACE(seed);
            Rng rng(seed * 7919);
            const std::vector<ConfigOp> ops = make_ops(rng);

            // One device applies op by op, one takes every op in one batch
            // with Status results, one in one batch with acceptance bits.
            std::array<std::unique_ptr<target::Device>, 3> devs;
            for (auto& dev : devs) {
                dev = target::make_device("sdnet", kind.quirks);
                ASSERT_NE(dev, nullptr);
                ASSERT_TRUE(dev->load(image));
            }
            std::vector<control::Status> single;
            for (const ConfigOp& op : ops) single.push_back(devs[0]->apply(op));
            const std::vector<control::Status> batched = devs[1]->apply(ops);
            std::vector<bool> accepted;
            devs[2]->apply(ops, accepted);

            ASSERT_EQ(batched.size(), ops.size());
            ASSERT_EQ(accepted.size(), ops.size());
            for (std::size_t i = 0; i < ops.size(); ++i) {
                EXPECT_EQ(batched[i].ok, single[i].ok) << "op " << i;
                EXPECT_EQ(batched[i].message, single[i].message) << "op " << i;
                EXPECT_EQ(accepted[i], single[i].ok) << "op " << i;
                ok += single[i].ok;
                duplicate += single[i].message.ends_with(": duplicate");
                full += single[i].message.ends_with(": table_full");
                failed += !single[i].ok;
            }
            const std::string snap = devs[0]->snapshot().to_string();
            EXPECT_EQ(devs[1]->snapshot().to_string(), snap);
            EXPECT_EQ(devs[2]->snapshot().to_string(), snap);

            // A lookup of every installed key, then as many packets whose
            // fields come from `rng` alone, most of which miss.
            std::vector<packet::Packet> probes;
            for (std::size_t i = 0; i < ops.size(); ++i) {
                if (single[i].ok && ops[i].kind == ConfigOp::Kind::add_entry) {
                    probes.push_back(packet_for(ops[i], rng));
                }
            }
            for (std::size_t i = 0, n = probes.size(); i < n; ++i) {
                probes.push_back(packet_for(ConfigOp{}, rng));
            }
            for (std::size_t i = 0; i < probes.size(); ++i) {
                for (auto& dev : devs) dev->inject(probes[i]);
                const std::string out = outputs(*devs[0]);
                EXPECT_EQ(outputs(*devs[1]), out) << "probe " << i;
                EXPECT_EQ(outputs(*devs[2]), out) << "probe " << i;
            }
            const control::StatusSnapshot after = devs[0]->snapshot();
            for (const control::TableStatus& t : after.tables) {
                EXPECT_GT(t.hits, 0u) << t.name;
                EXPECT_GT(t.misses, 0u) << t.name;
            }
            EXPECT_EQ(devs[1]->snapshot().to_string(), after.to_string());
            EXPECT_EQ(devs[2]->snapshot().to_string(), after.to_string());
        }
        EXPECT_GT(ok, 0u);
        EXPECT_GT(duplicate, 0u);
        EXPECT_GT(full, 0u);
        EXPECT_GT(failed, duplicate + full);  // and translation failures
        std::cout << kind.label << ": " << ok << " accepted, " << duplicate
                  << " duplicates, " << full << " table_full, "
                  << failed - duplicate - full << " other rejections\n";
    }
}

}  // namespace
