// Bitvec representation tests: the inline small-value storage contract
// (widths <= 64 never allocate) and word-level operation correctness
// against a bit-at-a-time reference.  Plus the packet path's allocation
// budget -- once warm, a device forwards and drops without allocating, a
// whole scenario run refilled in place allocates nothing, a traced inject
// copies its stage taps into storage the device keeps, and switching among
// programs a device has already run allocates nothing -- and the control
// path's: re-applying exact entries after a same-image reload allocates
// nothing per entry, and a warm refilled run allocates nothing for a config
// with rejected ops or one that fills a 65,536-entry table.  And a campaign
// run builds device pools only for the threads that get a job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "core/generator.h"
#include "core/scenario_exec.h"
#include "core/specgen.h"
#include "core/tools.h"
#include "coverage/coverage.h"
#include "quirk_fixture.h"
#include "target/device.h"
#include "util/bitvec.h"
#include "util/random.h"

// --- instrumented allocator ---------------------------------------------------
//
// Counts every global allocation in the test binary.  The counter is only
// meaningful between reset/read pairs on one thread, which is all the
// no-allocation assertions need.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t n) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1)) return p;
    throw std::bad_alloc();
}

// The nothrow forms (std::stable_sort's temporary buffer) as well: under
// AddressSanitizer they would otherwise come from its allocator and reach
// the free() below.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using ndb::util::Bitvec;
using ndb::util::Rng;

std::uint64_t allocations() {
    return g_allocations.load(std::memory_order_relaxed);
}

TEST(BitvecAlloc, NarrowConstructionAndArithmeticNeverTouchTheHeap) {
    // Warm up anything lazy (gtest bookkeeping etc.) before counting.
    Bitvec warm(48, 0x1234);
    ASSERT_EQ(warm.width(), 48);

    const std::uint64_t before = allocations();
    for (int width : {1, 8, 9, 16, 32, 48, 63, 64}) {
        Bitvec a(width, 0xdeadbeefcafef00dull);
        Bitvec b(width, 0x0123456789abcdefull);
        Bitvec ones = Bitvec::ones(width);

        Bitvec r = a.add(b);
        r = r.sub(a);
        r = r.mul(b);
        r = r.band(ones);
        r = r.bor(b);
        r = r.bxor(a);
        r = r.bnot();
        r = r.neg();
        r = r.shl(width / 2);
        r = r.lshr(width / 3);
        r = r.resize(width);
        if (width > 1) r = r.slice(width - 1, 1).resize(width);
        r.set_slice(width - 1, 0, a);
        r.zero();
        r.set_bit(width - 1, true);

        (void)a.eq(b);
        (void)a.ult(b);
        (void)a.ule(b);
        (void)a.is_zero();
        (void)a.is_ones();
        (void)a.to_u64();
        (void)a.hash();
        (void)(a == b);

        Bitvec copied = a;           // copy
        Bitvec moved = std::move(copied);  // move
        (void)moved;
        (void)Bitvec::concat(a.slice(width - 1, width / 2),
                             a.slice(width / 2 != 0 ? width / 2 - 1 : 0, 0));
    }
    EXPECT_EQ(allocations(), before)
        << "a <=64-bit Bitvec operation allocated on the heap";
}

TEST(BitvecAlloc, WideValuesStillWork) {
    // > 64 bits takes the heap path; semantics must be unaffected.
    Bitvec a = Bitvec::from_hex("0x0102030405060708090a0b0c0d0e0f10", 128);
    EXPECT_EQ(a.width(), 128);
    EXPECT_FALSE(a.fits_u64());
    EXPECT_EQ(a.to_u64(), 0x090a0b0c0d0e0f10ull);
    EXPECT_EQ(a.to_hex(), "0x0102030405060708090a0b0c0d0e0f10");

    const Bitvec b = a.add(Bitvec(128, 1));
    EXPECT_EQ(b.to_u64(), 0x090a0b0c0d0e0f11ull);
    EXPECT_TRUE(a.ult(b));
    EXPECT_EQ(a.slice(127, 64).to_u64(), 0x0102030405060708ull);
    EXPECT_EQ(Bitvec::concat(a.slice(127, 64), a.slice(63, 0)), a);
    EXPECT_EQ(a.resize(64).to_u64(), a.to_u64());
    EXPECT_EQ(a.resize(200).resize(128), a);
}

// The catalogue program's scenario at seed 11 and its first `count`
// stimuli, timed on the campaign's injection timeline.
std::vector<ndb::packet::Packet> catalogue_stream(const ndb::core::Scenario& sc,
                                                  std::uint64_t count) {
    ndb::core::TestPacketGenerator pgen(sc.spec);
    std::vector<ndb::packet::Packet> stream;
    for (std::uint64_t seq = 1; seq <= count; ++seq) {
        stream.push_back(pgen.make_packet(
            seq, ndb::target::kClockEpochNs + (seq - 1) * ndb::target::kNsPerPacket));
    }
    return stream;
}

// Drains every port of `dev` through `drained`, which keeps its capacity.
void drain_all(ndb::target::Device& dev, std::vector<ndb::packet::Packet>& drained) {
    for (int port = 0; port < dev.config().num_ports; ++port) {
        dev.drain_port_into(static_cast<std::uint32_t>(port), drained);
    }
    drained.clear();
}

TEST(PacketPathAlloc, WarmDeviceForwardsAndDropsWithoutAllocating) {
    // Every catalogue program: one warm-up stream grows the device's pooled
    // buffers (parse state, select keys, digest ring), then the same stream
    // again allocates nothing, forwarded or dropped: the stimuli are
    // borrowed, and the deparsed output keeps its bytes inline all the way
    // through the egress queue and the drain.  Each packet is drained as
    // soon as it is injected, so egress queue growth stays out of the count.
    constexpr std::uint64_t kStream = 128;
    const ndb::core::SpecGenerator gen;
    for (std::size_t p = 0; p < gen.programs().size(); ++p) {
        const ndb::core::Scenario sc = gen.make_for(p, 11);
        SCOPED_TRACE(sc.program);
        auto dev = ndb::target::make_device("reference");
        ASSERT_NE(dev, nullptr);
        ASSERT_TRUE(dev->load(sc.compiled));
        dev->apply(sc.config);
        dev->set_digests_enabled(true);
        const std::vector<ndb::packet::Packet> stream = catalogue_stream(sc, kStream);
        std::vector<ndb::packet::Packet> drained;
        drained.reserve(kStream);

        for (const auto& pkt : stream) {
            dev->inject(pkt);
            drain_all(*dev, drained);
        }
        ASSERT_TRUE(dev->reset_state());  // registers, queues, digest ring
        // The reset zeroed the registers the config wrote (maglev_lb's
        // backend pool, without which it forwards nothing).
        dev->apply(sc.config);

        std::uint64_t forwarded = 0;
        for (std::size_t i = 0; i < stream.size(); ++i) {
            const std::uint64_t before = allocations();
            dev->inject(stream[i]);
            drain_all(*dev, drained);
            const std::uint64_t used = allocations() - before;
            ASSERT_EQ(dev->digest_records().size(), i + 1);
            forwarded += dev->digest_records().back().disposition ==
                         ndb::dataplane::Disposition::forwarded;
            EXPECT_EQ(used, 0u) << "packet " << i + 1;
        }
        std::cout << sc.program << ": " << forwarded << " of " << kStream
                  << " forwarded\n";
    }
}

TEST(PacketPathAlloc, WarmRefillAllocatesNothing) {
    // Every catalogue program, at stream lengths on both sides of the digest
    // ring's kMaxDigestRecords (4,096): a scenario run refilled into the
    // DeviceRun of the previous one, on the device that already holds its
    // image, allocates nothing however many packets it forwards.  The
    // stimuli are borrowed, outputs keep their bytes inline, the config
    // goes to the device as one batch that reports acceptance bits, and the
    // run's vectors, the tables' storage and the snapshot's vectors and
    // strings keep their capacity.
    const ndb::core::SpecGenerator gen;
    for (std::size_t p = 0; p < gen.programs().size(); ++p) {
        const ndb::core::Scenario sc = gen.make_for(p, 11);
        SCOPED_TRACE(sc.program);
        for (const std::uint64_t length : {128u, 512u, 4097u}) {
            SCOPED_TRACE(length);
            const std::vector<ndb::packet::Packet> stream = catalogue_stream(sc, length);
            auto dev = ndb::target::make_device("reference");
            ASSERT_NE(dev, nullptr);
            ndb::core::DeviceRun run;
            ndb::core::run_scenario_on(*dev, sc, stream, 8, run);  // warm-up

            const std::uint64_t before = allocations();
            ndb::core::run_scenario_on(*dev, sc, stream, 8, run);
            const std::uint64_t used = allocations() - before;
            ASSERT_EQ(run.injected, length);
            ASSERT_EQ(run.taps.size(), length);
            const auto rejected = static_cast<std::uint64_t>(
                std::count(run.config_ok.begin(), run.config_ok.end(), false));
            std::cout << sc.program << " x" << length << ": " << used
                      << " allocations, " << rejected << " rejected ops, "
                      << run.snapshot.stages.forwarded << " forwarded\n";
            EXPECT_EQ(used, 0u);
        }
    }
}

TEST(PacketPathAlloc, WarmTappedInjectAllocatesOnlyItsStageCopies) {
    // Every catalogue program traced, as the localizer traces its trigger:
    // once warm, a trace() copies the state after each stage into the
    // device's tap states, which keep their storage from trace to trace.
    // The result comes back by value and the queued output copy stays
    // inline, so nothing is allocated whether the packet is forwarded or
    // dropped.
    constexpr std::uint64_t kStream = 128;
    const ndb::core::SpecGenerator gen;
    std::uint64_t total = 0;
    std::uint64_t packets = 0;
    for (std::size_t p = 0; p < gen.programs().size(); ++p) {
        const ndb::core::Scenario sc = gen.make_for(p, 11);
        SCOPED_TRACE(sc.program);
        auto dev = ndb::target::make_device("reference");
        ASSERT_NE(dev, nullptr);
        ASSERT_TRUE(dev->load(sc.compiled));
        dev->apply(sc.config);
        const std::vector<ndb::packet::Packet> stream = catalogue_stream(sc, kStream);
        std::vector<ndb::packet::Packet> drained;
        drained.reserve(kStream);

        for (const auto& pkt : stream) {
            (void)dev->trace(pkt);
            drain_all(*dev, drained);
        }

        std::uint64_t program_total = 0;
        for (std::size_t i = 0; i < stream.size(); ++i) {
            const std::uint64_t before = allocations();
            const ndb::dataplane::PipelineResult traced = dev->trace(stream[i]);
            drain_all(*dev, drained);
            const std::uint64_t used = allocations() - before;
            ASSERT_TRUE(dev->taps().has(ndb::dataplane::Stage::parser))
                << "packet " << i + 1;
            ASSERT_EQ(dev->taps().has(ndb::dataplane::Stage::ingress),
                      traced.parser_verdict == ndb::dataplane::ParserVerdict::accept)
                << "packet " << i + 1;
            EXPECT_EQ(used, 0u) << "packet " << i + 1;
            program_total += used;
        }
        std::cout << sc.program << ": "
                  << static_cast<double>(program_total) / kStream
                  << " allocations per traced inject\n";
        total += program_total;
        packets += kStream;
    }
    std::cout << "catalogue: " << static_cast<double>(total) / static_cast<double>(packets)
              << " allocations per traced inject\n";
}

TEST(ImageSwitchAlloc, WarmSwitchAllocatesNothing) {
    // Each device configuration a campaign runs -- the reference and the
    // ten single-flag DUTs -- cycles through the 18 catalogue programs the
    // way a guided worker does: every program's scenario refilled into one
    // DeviceRun with coverage attached, then one packet traced.  Once the
    // device has run every program, loading another one refills its
    // tables, externs, pipeline and packet state in place, so the switch
    // allocates nothing, and nor does the rest of the run, whatever config
    // ops the device rejects.
    constexpr std::uint64_t kStream = 16;
    const ndb::core::SpecGenerator gen;
    std::vector<ndb::core::Scenario> scenarios;
    std::vector<std::vector<ndb::packet::Packet>> streams;
    for (std::size_t p = 0; p < gen.programs().size(); ++p) {
        scenarios.push_back(gen.make_for(p, 11));
        streams.push_back(catalogue_stream(scenarios.back(), kStream));
    }
    std::vector<ndb::core::BackendSpec> kinds{{"reference", std::nullopt, "reference"}};
    for (const auto& fx : {ndb_test::seven_flag_fixture(), ndb_test::state_quirk_fixture()}) {
        kinds.insert(kinds.end(), fx.duts.begin(), fx.duts.end());
    }
    ASSERT_EQ(kinds.size(), 11u);
    for (const ndb::core::BackendSpec& kind : kinds) {
        SCOPED_TRACE(kind.label);
        auto dev = ndb::target::make_device(kind.name, kind.quirks);
        ASSERT_NE(dev, nullptr);
        ndb::coverage::CoverageMap map;
        std::vector<ndb::coverage::SlotHits> lit;
        ndb::core::DeviceRun run;
        dev->set_coverage(&map);
        std::uint64_t switch_total = 0;
        std::uint64_t run_total = 0;
        for (int cycle = 0; cycle < 2; ++cycle) {
            for (std::size_t p = 0; p < scenarios.size(); ++p) {
                SCOPED_TRACE(scenarios[p].program);
                const std::uint64_t before = allocations();
                ASSERT_TRUE(dev->load(scenarios[p].compiled));
                const std::uint64_t switched = allocations();
                ndb::core::run_scenario_on(*dev, scenarios[p], streams[p], 8, run);
                (void)dev->trace(streams[p].front());
                dev->flush();
                map.take_hits_into(lit);
                const std::uint64_t after = allocations();
                if (cycle < 1) continue;  // the first cycle warms up
                ASSERT_FALSE(lit.empty());
                EXPECT_EQ(switched - before, 0u) << "load() allocated";
                EXPECT_EQ(after - switched, 0u);
                switch_total += switched - before;
                run_total += after - switched;
            }
        }
        std::cout << kind.label << ": " << switch_total << " allocations over "
                  << scenarios.size() << " switches, " << run_total
                  << " in their runs\n";
    }
}

// A flow_wide add_entry op of wide_match: destination `dst`, egress `port`.
ndb::control::ConfigOp flow_wide_entry(std::uint32_t dst, std::uint64_t port) {
    const auto mac = [](const ndb::packet::Mac& m) {
        return Bitvec::from_bytes(std::span<const std::uint8_t>(m.data(), m.size()), 48);
    };
    ndb::control::ConfigOp op;
    op.target = "flow_wide";
    op.entry.key_values = {mac(ndb::core::scenario::host_mac(2)),
                           mac(ndb::core::scenario::host_mac(1)),
                           Bitvec(32, ndb::core::scenario::host_ip(1)), Bitvec(32, dst),
                           Bitvec(8, ndb::packet::kIpProtoUdp)};
    op.entry.action = "set_port";
    op.entry.action_args = {Bitvec(9, port)};
    return op;
}

TEST(ControlPathAlloc, WarmReapplyAllocatesNothingPerExactEntry) {
    // wide_match's scenario plus N distinct flow_wide entries.  Once a device
    // has applied the batch, a same-image reload keeps every table's
    // storage and add_entry translates into a reused entry, so applying the
    // batch again allocates once whatever N is: the status vector the batch
    // apply() returns.
    const ndb::core::SpecGenerator gen({"wide_match"});
    const ndb::core::Scenario sc = gen.make_for(0, 11);
    std::vector<std::uint64_t> counts;
    for (const std::uint32_t n : {1024u, 4096u}) {
        SCOPED_TRACE(n);
        std::vector<ndb::control::ConfigOp> batch = sc.config;
        for (std::uint32_t i = 0; i < n; ++i) {
            batch.push_back(flow_wide_entry(0xc0a80000u + i, 1 + i % 3));  // 192.168/16
        }
        auto dev = ndb::target::make_device("reference");
        ASSERT_NE(dev, nullptr);
        ASSERT_TRUE(dev->load(sc.compiled));
        for (const auto& st : dev->apply(batch)) ASSERT_TRUE(st) << st.message;
        ASSERT_TRUE(dev->load(sc.compiled));  // same image: reset in place

        const std::uint64_t before = allocations();
        const std::vector<ndb::control::Status> statuses = dev->apply(batch);
        const std::uint64_t used = allocations() - before;
        ASSERT_EQ(statuses.size(), batch.size());
        for (const auto& st : statuses) ASSERT_TRUE(st) << st.message;
        std::cout << n << " flow_wide entries: " << used
                  << " allocations to re-apply " << batch.size() << " ops\n";
        EXPECT_LE(used, 1u);
        counts.push_back(used);
    }
    EXPECT_EQ(counts[0], counts[1]) << "allocations grow with the entry count";
}

TEST(ControlPathAlloc, WarmRefillWithRejectedOpsAllocatesNothing) {
    // Every catalogue program's scenario with rejected ops added to its
    // config: a second copy of each add_entry (a duplicate), entries that
    // fail translation (unknown action, one key too many), an op on a table
    // the program lacks and a register write past any extern.  On the
    // reference and on a table_size_clamp = 2 DUT, which also rejects
    // inserts into full tables, a warm refilled run reports those
    // rejections as acceptance bits and formats no message, so it
    // allocates nothing.
    const ndb::core::SpecGenerator gen;
    ndb::dataplane::Quirks clamp;
    clamp.table_size_clamp = 2;
    for (const std::optional<ndb::dataplane::Quirks>& quirks :
         {std::optional<ndb::dataplane::Quirks>{}, std::optional{clamp}}) {
        SCOPED_TRACE(quirks ? "table_size_clamp=2" : "reference");
        std::uint64_t total_rejected = 0;
        std::uint64_t total_used = 0;
        for (std::size_t p = 0; p < gen.programs().size(); ++p) {
            ndb::core::Scenario sc = gen.make_for(p, 11);
            SCOPED_TRACE(sc.program);
            const std::vector<ndb::control::ConfigOp> config = sc.config;
            for (const ndb::control::ConfigOp& op : config) {
                if (op.kind != ndb::control::ConfigOp::Kind::add_entry) continue;
                sc.config.push_back(op);  // duplicate
                ndb::control::ConfigOp unknown_action = op;
                unknown_action.entry.action = "no_such_action";
                sc.config.push_back(std::move(unknown_action));
                ndb::control::ConfigOp extra_key = op;
                extra_key.entry.key_values.push_back(Bitvec(8, 1));
                sc.config.push_back(std::move(extra_key));
            }
            ndb::control::ConfigOp no_table;
            no_table.target = "no_such_table";
            no_table.entry.key_values = {Bitvec(8, 1)};
            no_table.entry.action = "drop";
            sc.config.push_back(no_table);
            ndb::control::ConfigOp no_extern;
            no_extern.kind = ndb::control::ConfigOp::Kind::write_register;
            no_extern.target = "no_such_register";
            no_extern.value = Bitvec(32, 1);
            sc.config.push_back(no_extern);

            const std::vector<ndb::packet::Packet> stream = catalogue_stream(sc, 64);
            auto dev = quirks ? ndb::target::make_device("sdnet", *quirks)
                              : ndb::target::make_device("reference");
            ASSERT_NE(dev, nullptr);
            ndb::core::DeviceRun run;
            ndb::core::run_scenario_on(*dev, sc, stream, 8, run);  // warm-up

            const std::uint64_t before = allocations();
            ndb::core::run_scenario_on(*dev, sc, stream, 8, run);
            const std::uint64_t used = allocations() - before;
            const auto rejected = static_cast<std::uint64_t>(
                std::count(run.config_ok.begin(), run.config_ok.end(), false));
            ASSERT_EQ(run.config_ok.size(), sc.config.size());
            ASSERT_GE(rejected, 2u);
            EXPECT_EQ(used, 0u) << rejected << " rejected ops";
            total_rejected += rejected;
            total_used += used;
        }
        std::cout << (quirks ? "table_size_clamp=2" : "reference") << ": "
                  << total_rejected << " rejected ops over " << gen.programs().size()
                  << " programs, " << total_used << " allocations\n";
    }
}

TEST(ControlPathAlloc, WarmTableScaleRefillAllocatesNothing) {
    // wide_match's scenario with flow_wide filled to its declared 65,536
    // entries, the config perfbench's table_scale delivers.  Once a device
    // has run it, a refilled run clears the table and inserts every entry
    // again, chunk by chunk, into the index, key, action and argument
    // arrays and the translation entries it kept, so nothing is allocated.
    const ndb::core::SpecGenerator gen({"wide_match"});
    ndb::core::Scenario sc = gen.make_for(0, 11);
    std::vector<ndb::control::ConfigOp> config;
    for (std::uint32_t i = 0; i < 65536; ++i) {
        config.push_back(flow_wide_entry(0x0a100000u + i, 1 + i % 3));
    }
    for (ndb::control::ConfigOp& op : sc.config) {
        if (op.target != "flow_wide") config.push_back(std::move(op));
    }
    sc.config = std::move(config);
    const std::vector<ndb::packet::Packet> stream = catalogue_stream(sc, 64);
    auto dev = ndb::target::make_device("reference");
    ASSERT_NE(dev, nullptr);
    ndb::core::DeviceRun run;
    ndb::core::run_scenario_on(*dev, sc, stream, 8, run);  // warm-up

    const std::uint64_t before = allocations();
    ndb::core::run_scenario_on(*dev, sc, stream, 8, run);
    const std::uint64_t used = allocations() - before;
    ASSERT_EQ(run.config_ok.size(), sc.config.size());
    EXPECT_EQ(std::count(run.config_ok.begin(), run.config_ok.end(), false), 0);
    const auto flow_wide = std::find_if(
        run.snapshot.tables.begin(), run.snapshot.tables.end(),
        [](const ndb::control::TableStatus& t) { return t.name == "flow_wide"; });
    ASSERT_NE(flow_wide, run.snapshot.tables.end());
    EXPECT_EQ(flow_wide->entries, 65536u);
    std::cout << sc.config.size() << " ops refilled: " << used << " allocations\n";
    EXPECT_EQ(used, 0u);
}

// Bit-at-a-time reference implementations of the word-level kernels.
Bitvec ref_shl(const Bitvec& a, int amount) {
    Bitvec r(a.width());
    for (int i = a.width() - 1; i >= amount; --i) r.set_bit(i, a.bit(i - amount));
    return r;
}

Bitvec ref_lshr(const Bitvec& a, int amount) {
    Bitvec r(a.width());
    for (int i = 0; i + amount < a.width(); ++i) r.set_bit(i, a.bit(i + amount));
    return r;
}

Bitvec ref_slice(const Bitvec& a, int hi, int lo) {
    Bitvec r(hi - lo + 1);
    for (int i = lo; i <= hi; ++i) r.set_bit(i - lo, a.bit(i));
    return r;
}

Bitvec ref_concat(const Bitvec& hi, const Bitvec& lo) {
    Bitvec r(hi.width() + lo.width());
    for (int i = 0; i < lo.width(); ++i) r.set_bit(i, lo.bit(i));
    for (int i = 0; i < hi.width(); ++i) r.set_bit(lo.width() + i, hi.bit(i));
    return r;
}

// Bit-at-a-time references for the ops with an inline <= 64-bit arm.
Bitvec ref_add(const Bitvec& a, const Bitvec& b) {
    Bitvec r(a.width());
    int carry = 0;
    for (int i = 0; i < a.width(); ++i) {
        const int sum = a.bit(i) + b.bit(i) + carry;
        r.set_bit(i, sum & 1);
        carry = sum >> 1;
    }
    return r;
}

Bitvec ref_sub(const Bitvec& a, const Bitvec& b) {
    Bitvec r(a.width());
    int borrow = 0;
    for (int i = 0; i < a.width(); ++i) {
        const int diff = a.bit(i) - b.bit(i) - borrow;
        r.set_bit(i, diff & 1);
        borrow = diff < 0 ? 1 : 0;
    }
    return r;
}

template <typename Fn>
Bitvec ref_bitwise(const Bitvec& a, const Bitvec& b, Fn fn) {
    Bitvec r(a.width());
    for (int i = 0; i < a.width(); ++i) r.set_bit(i, fn(a.bit(i), b.bit(i)));
    return r;
}

Bitvec ref_not(const Bitvec& a) {
    Bitvec r(a.width());
    for (int i = 0; i < a.width(); ++i) r.set_bit(i, !a.bit(i));
    return r;
}

bool ref_eq(const Bitvec& a, const Bitvec& b) {
    for (int i = 0; i < a.width(); ++i) {
        if (a.bit(i) != b.bit(i)) return false;
    }
    return true;
}

bool ref_ult(const Bitvec& a, const Bitvec& b) {
    for (int i = a.width() - 1; i >= 0; --i) {
        if (a.bit(i) != b.bit(i)) return b.bit(i);
    }
    return false;
}

Bitvec ref_resize(const Bitvec& a, int width) {
    Bitvec r(width);
    for (int i = 0; i < width && i < a.width(); ++i) r.set_bit(i, a.bit(i));
    return r;
}

Bitvec random_bitvec(Rng& rng, int width) {
    Bitvec v(width);
    for (int i = 0; i < width; i += 64) {
        const int chunk = std::min(64, width - i);
        std::uint64_t bits = rng.next_u64();
        for (int b = 0; b < chunk; ++b) {
            if ((bits >> b) & 1) v.set_bit(i + b, true);
        }
    }
    return v;
}

TEST(CampaignAlloc, IdleThreadsBuildNoDevicePool) {
    // A worker builds its device pool -- a reference device plus every DUT
    // -- when it starts, and a run starts at most one worker per job.  So a
    // one-scenario sweep at eight threads builds the one pool the same sweep
    // builds at one thread, and allocates no more.
    ndb::core::CampaignConfig config;
    config.base_seed = 1;
    config.scenarios = 1;
    const auto run_at = [&](int threads) {
        config.threads = threads;
        const std::uint64_t before = allocations();
        (void)ndb::core::CampaignEngine(config).run();
        return allocations() - before;
    };
    (void)run_at(1);  // warm-up
    const std::uint64_t one = run_at(1);
    const std::uint64_t eight = run_at(8);
    std::cout << "one-scenario sweep: " << one << " allocations at 1 thread, "
              << eight << " at 8\n";
    EXPECT_LE(eight, one);
}

TEST(BitvecWordOps, MatchBitwiseReferenceAcrossWidths) {
    Rng rng(2024);
    for (const int width : {1, 7, 31, 64, 65, 96, 128, 200, 257}) {
        for (int round = 0; round < 24; ++round) {
            const Bitvec a = random_bitvec(rng, width);
            const int amount = static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(width) + 2));
            EXPECT_EQ(a.shl(amount), ref_shl(a, amount)) << width;
            EXPECT_EQ(a.lshr(amount), ref_lshr(a, amount)) << width;

            const int hi = static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(width)));
            const int lo = static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(hi) + 1));
            EXPECT_EQ(a.slice(hi, lo), ref_slice(a, hi, lo)) << width;

            const Bitvec b = random_bitvec(
                rng, static_cast<int>(rng.next_below(130)));
            EXPECT_EQ(Bitvec::concat(a, b), ref_concat(a, b)) << width;

            // set_slice == slice round-trip.
            Bitvec c = a;
            const Bitvec v = random_bitvec(rng, hi - lo + 1);
            c.set_slice(hi, lo, v);
            EXPECT_EQ(c.slice(hi, lo), v) << width;
            if (lo > 0) {
                EXPECT_EQ(c.slice(lo - 1, 0), a.slice(lo - 1, 0));
            }
            if (hi + 1 < width) {
                EXPECT_EQ(c.slice(width - 1, hi + 1), a.slice(width - 1, hi + 1));
            }

            // Byte/hex round-trips.
            const auto bytes = a.to_bytes();
            EXPECT_EQ(Bitvec::from_bytes(bytes, width), a) << width;
            EXPECT_EQ(Bitvec::from_hex(a.to_hex(), width), a) << width;
        }
    }

    // The ops with an inline <= 64-bit arm, on both sides of the 64/65
    // boundary.  operator== compares whole words, so a result that left
    // bits set above its width fails here too.
    for (const int width : {0, 1, 7, 9, 31, 48, 63, 64, 65, 128}) {
        for (int round = 0; round < 24; ++round) {
            const Bitvec a = random_bitvec(rng, width);
            // Every fourth round compares equal values, every fourth a
            // value one bit away.
            Bitvec b = random_bitvec(rng, width);
            if (round % 4 == 0) b = a;
            if (round % 4 == 1 && width > 0) {
                b = a;
                const int bit = static_cast<int>(rng.next_below(
                    static_cast<std::uint64_t>(width)));
                b.set_bit(bit, !b.bit(bit));
            }
            EXPECT_EQ(a.add(b), ref_add(a, b)) << width;
            EXPECT_EQ(a.sub(b), ref_sub(a, b)) << width;
            EXPECT_EQ(a.neg(), ref_sub(Bitvec(width), a)) << width;
            EXPECT_EQ(a.band(b), ref_bitwise(a, b, [](bool x, bool y) { return x && y; }))
                << width;
            EXPECT_EQ(a.bor(b), ref_bitwise(a, b, [](bool x, bool y) { return x || y; }))
                << width;
            EXPECT_EQ(a.bxor(b), ref_bitwise(a, b, [](bool x, bool y) { return x != y; }))
                << width;
            EXPECT_EQ(a.bnot(), ref_not(a)) << width;
            EXPECT_EQ(a.eq(b), ref_eq(a, b)) << width;
            EXPECT_EQ(a.ult(b), ref_ult(a, b)) << width;
            EXPECT_EQ(a.ule(b), ref_ult(a, b) || ref_eq(a, b)) << width;
            EXPECT_EQ(a.is_zero(), ref_eq(a, Bitvec(width))) << width;
            for (const int to : {0, 1, 63, 64, 65, 128, width - 1, width + 1}) {
                if (to < 0) continue;
                EXPECT_EQ(a.resize(to), ref_resize(a, to)) << width << " -> " << to;
            }

            // Copy and move, constructed and assigned, into targets on
            // either side of the boundary.
            const Bitvec copied(a);
            EXPECT_TRUE(copied.width() == width && ref_eq(copied, a)) << width;
            Bitvec source(a);
            const Bitvec moved(std::move(source));
            EXPECT_TRUE(moved.width() == width && ref_eq(moved, a)) << width;
            for (const int from : {9, 64, 65, 128}) {
                Bitvec assigned = random_bitvec(rng, from);
                assigned = a;
                EXPECT_TRUE(assigned.width() == width && ref_eq(assigned, a))
                    << from << " = " << width;
                Bitvec move_assigned = random_bitvec(rng, from);
                Bitvec donor(a);
                move_assigned = std::move(donor);
                EXPECT_TRUE(move_assigned.width() == width && ref_eq(move_assigned, a))
                    << from << " = move " << width;
            }
        }
    }
}

TEST(BitvecWordOps, EdgeBehaviourUnchanged) {
    // Width-0 identities.
    const Bitvec empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_TRUE(empty.is_zero());
    EXPECT_TRUE(empty.is_ones());
    EXPECT_EQ(Bitvec::concat(empty, Bitvec(8, 0x5a)).to_u64(), 0x5aull);
    EXPECT_EQ(Bitvec::concat(Bitvec(8, 0x5a), empty).to_u64(), 0x5aull);

    // Overflowing inputs still throw.
    const std::vector<std::uint8_t> big = {0xff, 0xff};
    EXPECT_THROW(Bitvec::from_bytes(big, 8), std::invalid_argument);
    EXPECT_THROW(Bitvec::from_hex("0x1ff", 8), std::invalid_argument);
    EXPECT_THROW(Bitvec(8, 0).bit(8), std::out_of_range);
    EXPECT_THROW(Bitvec(8, 0).slice(8, 0), std::out_of_range);
    EXPECT_THROW(Bitvec(8, 0).add(Bitvec(9, 0)), std::invalid_argument);

    // Every op with an inline arm checks widths before taking it, whether
    // the operands are narrow, wide or straddle the boundary.
    for (const auto& [wa, wb] :
         {std::pair{0, 1}, std::pair{8, 9}, std::pair{64, 65}, std::pair{65, 64},
          std::pair{128, 129}}) {
        SCOPED_TRACE(std::to_string(wa) + " vs " + std::to_string(wb));
        const Bitvec a(wa);
        const Bitvec b(wb);
        EXPECT_THROW(a.add(b), std::invalid_argument);
        EXPECT_THROW(a.sub(b), std::invalid_argument);
        EXPECT_THROW(a.band(b), std::invalid_argument);
        EXPECT_THROW(a.bor(b), std::invalid_argument);
        EXPECT_THROW(a.bxor(b), std::invalid_argument);
        EXPECT_THROW(a.eq(b), std::invalid_argument);
        EXPECT_THROW(a.ult(b), std::invalid_argument);
        EXPECT_THROW(a.ule(b), std::invalid_argument);
        EXPECT_THROW(a.ugt(b), std::invalid_argument);
        EXPECT_THROW(a.uge(b), std::invalid_argument);
    }
    EXPECT_THROW(Bitvec(-1), std::invalid_argument);
    EXPECT_THROW(Bitvec(-1, 1), std::invalid_argument);
    EXPECT_THROW(Bitvec(8, 1).resize(-1), std::invalid_argument);
    EXPECT_THROW(Bitvec(65, 1).resize(-1), std::invalid_argument);

    // Truncating constructor masks to width.
    EXPECT_EQ(Bitvec(4, 0xff).to_u64(), 0xfull);
    EXPECT_EQ(Bitvec(64, ~0ull).to_u64(), ~0ull);
    EXPECT_TRUE(Bitvec::ones(65).is_ones());
}

}  // namespace
