// Same-image reload: a device asked to load the image it already holds
// resets in place instead of rebuilding its tables and engines.  These tests
// pin that the shortcut is invisible -- a dirtied device reloaded with the
// scenario's image runs the scenario exactly like a freshly built one -- and
// that the load contract around it (zeroed cells, null images, callers
// discarding their program) still holds.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario_exec.h"
#include "core/specgen.h"
#include "core/tools.h"
#include "p4/compiler.h"
#include "p4/programs.h"
#include "quirk_fixture.h"
#include "target/device.h"

namespace {

using namespace ndb;
using util::Bitvec;

// The reference device plus every single-flag sdnet DUT of the quirk
// fixtures, each as a factory so a test can build fresh instances.
struct DeviceKind {
    std::string label;
    std::function<std::unique_ptr<target::Device>()> make;
};

std::vector<DeviceKind> device_kinds() {
    std::vector<DeviceKind> kinds;
    kinds.push_back({"reference", [] { return target::make_device("reference"); }});
    for (const auto& fx : {ndb_test::seven_flag_fixture(),
                           ndb_test::state_quirk_fixture()}) {
        for (const auto& dut : fx.duts) {
            kinds.push_back({dut.label, [dut] {
                                 return target::make_device(dut.name, dut.quirks);
                             }});
        }
    }
    return kinds;
}

// Leaves traces of a previous run in every place a load must clear: extra
// entries and a changed default action on every table, register writes, a
// configured meter, and unread traffic in the queues, counters and digest
// ring.  The writes go to the device as one batch.
void dirty(target::Device& dev, const core::Scenario& sc,
           const std::vector<packet::Packet>& packets) {
    const p4::ir::Program& prog = *sc.compiled;
    std::vector<control::ConfigOp> ops;
    for (const p4::ir::Table& t : prog.tables) {
        if (t.actions.empty()) continue;
        for (std::uint64_t k = 1; k <= 3; ++k) {
            control::ConfigOp op;
            op.target = t.name;
            for (const auto& key : t.keys) {
                op.entry.key_values.push_back(
                    Bitvec(key.width, 0x5a5a5a5a5a5a5a5aull * k));
                if (t.has_ternary()) {
                    op.entry.key_masks.push_back(Bitvec::ones(key.width));
                }
            }
            op.entry.priority = static_cast<int>(k);
            const p4::ir::Action& a =
                prog.actions[static_cast<std::size_t>(t.actions.back())];
            op.entry.action = a.name;
            for (int w : a.param_widths) op.entry.action_args.push_back(Bitvec::ones(w));
            ops.push_back(std::move(op));
        }
        const p4::ir::Action& a =
            prog.actions[static_cast<std::size_t>(t.actions.front())];
        control::ConfigOp op;
        op.kind = control::ConfigOp::Kind::set_default_action;
        op.target = t.name;
        op.action = a.name;
        for (int w : a.param_widths) op.action_args.push_back(Bitvec::ones(w));
        ops.push_back(std::move(op));
    }
    for (const p4::ir::ExternDecl& e : prog.externs) {
        control::ConfigOp op;
        op.target = e.name;
        if (e.kind == p4::ir::ExternDecl::Kind::reg) {
            op.kind = control::ConfigOp::Kind::write_register;
            op.value = Bitvec::ones(e.elem_width);
        } else if (e.kind == p4::ir::ExternDecl::Kind::meter) {
            op.kind = control::ConfigOp::Kind::configure_meter;
            op.meter = {1e3, 64, 2e3, 128};
        } else {
            continue;
        }
        ops.push_back(std::move(op));
    }
    const std::vector<control::Status> statuses = dev.apply(ops);
    ASSERT_EQ(statuses.size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        // A full or clamped table may refuse an insert; nothing else may fail.
        if (ops[i].kind == control::ConfigOp::Kind::add_entry) continue;
        ASSERT_TRUE(statuses[i]) << ops[i].target << ": " << statuses[i].message;
    }
    dev.set_digests_enabled(true);
    for (const auto& pkt : packets) dev.inject(pkt);
    dev.set_digests_enabled(false);
}

void expect_same_snapshot(const control::StatusSnapshot& got,
                          const control::StatusSnapshot& want,
                          const std::string& where) {
    // taken_at_ns is left out: the virtual clock belongs to the device, not
    // to the image, and no load rewinds it.
    const auto& gs = got.stages;
    const auto& ws = want.stages;
    EXPECT_EQ(gs.parser_in, ws.parser_in) << where;
    EXPECT_EQ(gs.parser_accepted, ws.parser_accepted) << where;
    EXPECT_EQ(gs.parser_rejected, ws.parser_rejected) << where;
    EXPECT_EQ(gs.parser_errors, ws.parser_errors) << where;
    EXPECT_EQ(gs.ingress_dropped, ws.ingress_dropped) << where;
    EXPECT_EQ(gs.egress_dropped, ws.egress_dropped) << where;
    EXPECT_EQ(gs.forwarded, ws.forwarded) << where;
    EXPECT_EQ(got.misdirected, want.misdirected) << where;
    ASSERT_EQ(got.ports.size(), want.ports.size()) << where;
    for (std::size_t i = 0; i < got.ports.size(); ++i) {
        EXPECT_EQ(got.ports[i].rx_packets, want.ports[i].rx_packets) << where;
        EXPECT_EQ(got.ports[i].rx_bytes, want.ports[i].rx_bytes) << where;
        EXPECT_EQ(got.ports[i].tx_packets, want.ports[i].tx_packets) << where;
        EXPECT_EQ(got.ports[i].tx_bytes, want.ports[i].tx_bytes) << where;
    }
    ASSERT_EQ(got.tables.size(), want.tables.size()) << where;
    for (std::size_t i = 0; i < got.tables.size(); ++i) {
        const auto& g = got.tables[i];
        const auto& w = want.tables[i];
        EXPECT_EQ(g.name, w.name) << where;
        EXPECT_EQ(g.entries, w.entries) << where << " table " << w.name;
        EXPECT_EQ(g.capacity, w.capacity) << where << " table " << w.name;
        EXPECT_EQ(g.hits, w.hits) << where << " table " << w.name;
        EXPECT_EQ(g.misses, w.misses) << where << " table " << w.name;
    }
    ASSERT_EQ(got.externs.size(), want.externs.size()) << where;
    for (std::size_t i = 0; i < got.externs.size(); ++i) {
        const auto& g = got.externs[i];
        const auto& w = want.externs[i];
        EXPECT_EQ(g.name, w.name) << where;
        EXPECT_EQ(g.kind, w.kind) << where;
        EXPECT_EQ(g.cells, w.cells) << where;
        EXPECT_EQ(g.state_hash, w.state_hash) << where << " extern " << w.name;
        EXPECT_EQ(g.unconfigured_meters, w.unconfigured_meters)
            << where << " extern " << w.name;
    }
}

void expect_same_run(const core::DeviceRun& got, const core::DeviceRun& want,
                     const std::string& where) {
    EXPECT_EQ(got.config_ok, want.config_ok) << where;
    EXPECT_EQ(got.config_wire_fail, want.config_wire_fail) << where;
    EXPECT_EQ(got.injected, want.injected) << where;
    ASSERT_EQ(got.observed.size(), want.observed.size()) << where;
    for (std::size_t i = 0; i < got.observed.size(); ++i) {
        EXPECT_EQ(got.observed[i].port, want.observed[i].port) << where;
        EXPECT_TRUE(got.observed[i].pkt.same_bytes(want.observed[i].pkt))
            << where << " output #" << i;
    }
    EXPECT_EQ(got.taps, want.taps) << where;
    expect_same_snapshot(got.snapshot, want.snapshot, where);
}

TEST(DeviceReload, SameImageReloadMatchesAFreshDevice) {
    const std::vector<DeviceKind> kinds = device_kinds();
    ASSERT_EQ(kinds.size(), 11u);  // reference + 7 stateless + 3 state flags
    for (const std::string& program : core::SpecGenerator::default_programs()) {
        const core::SpecGenerator gen({program});
        for (std::uint64_t seed : {3u, 17u}) {
            const core::Scenario sc = gen.make(seed);
            const std::vector<packet::Packet> packets = core::scenario_packets(sc);
            for (const DeviceKind& kind : kinds) {
                const std::string where =
                    program + " seed " + std::to_string(seed) + " on " + kind.label;

                auto fresh = kind.make();
                const core::DeviceRun want =
                    core::run_scenario_on(*fresh, sc, packets, 8);

                auto reused = kind.make();
                ASSERT_TRUE(reused->load(sc.compiled)) << where;
                dirty(*reused, sc, packets);
                ASSERT_TRUE(reused->load(sc.compiled)) << where;
                // The device holds the scenario's image itself, not a copy.
                EXPECT_EQ(&reused->program(), sc.compiled.get()) << where;
                const core::DeviceRun got =
                    core::run_scenario_on(*reused, sc, packets, 8);
                expect_same_run(got, want, where);
            }
        }
    }
}

TEST(DeviceReload, ReloadZeroesCellsNullIsRefusedAndCopiesOutliveTheCaller) {
    const core::SpecGenerator gen({"nat_gateway"});
    const core::Scenario sc = gen.make(5);
    auto dev = target::make_device("reference");
    ASSERT_TRUE(dev->load(sc.compiled));

    // A same-image reload zeroes a register cell written before it.
    control::ConfigOp write;
    write.kind = control::ConfigOp::Kind::write_register;
    write.target = "nat_key";
    write.index = 1;
    write.value = Bitvec(32, 7);
    ASSERT_TRUE(dev->apply({&write, 1}).front());
    Bitvec cell;
    ASSERT_TRUE(dev->read_register("nat_key", 1, cell));
    EXPECT_EQ(cell.to_u64(), 7u);
    ASSERT_TRUE(dev->load(sc.compiled));
    ASSERT_TRUE(dev->read_register("nat_key", 1, cell));
    EXPECT_TRUE(cell.is_zero());

    // A null image is refused and leaves the loaded image in place.
    const control::Status null_load = dev->load(nullptr);
    EXPECT_FALSE(null_load);
    EXPECT_FALSE(null_load.message.empty());
    ASSERT_TRUE(dev->loaded());
    EXPECT_EQ(&dev->program(), sc.compiled.get());

    // A program passed by reference may die right after load(): the device
    // runs on its own shared copy.
    auto owned = p4::compile_source(p4::programs::l2_switch(), "l2_switch");
    ASSERT_TRUE(dev->load(*owned));
    owned.reset();
    ASSERT_TRUE(core::scenario::add_l2_entry(*dev, core::scenario::host_mac(2), 3));
    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.ingress_port = 0;
    dev->inject(pkt);
    const auto out = dev->drain_port(3);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].same_bytes(pkt));
    EXPECT_EQ(dev->program().name, "l2_switch");
}

}  // namespace
