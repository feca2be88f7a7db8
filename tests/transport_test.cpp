// Faultable transports + resilient wire client: FaultPlan parsing, clean
// loopback equivalence with direct dispatch, retry/dedup behaviour under
// injected faults, deterministic channel accounting, and the FdTransport
// socket path the fabric runs on.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "control/transport.h"
#include "control/wire.h"
#include "core/tools.h"
#include "p4/compiler.h"
#include "p4/programs.h"
#include "target/device.h"

namespace {

using namespace ndb;
using namespace ndb::control;

std::unique_ptr<target::Device> make_loaded_device() {
    auto dev = target::make_device("reference");
    const auto prog = p4::compile_source(p4::programs::l2_switch(), "l2_switch");
    if (!dev->load(*prog)) throw std::runtime_error("l2_switch load failed");
    return dev;
}

// A host-side client reaching the device through the wire protocol, the
// way a fabric worker's management plane does.
struct WireRig {
    std::unique_ptr<target::Device> device = make_loaded_device();
    LoopbackTransport transport{*device};
    WireChannel channel{transport};
    RuntimeClient client{channel};

    // Every traffic counter: the client's, then the link's.
    ChannelStats traffic() const {
        ChannelStats s = channel.stats();
        transport.count(s);
        return s;
    }
};

// --- fault plan parsing -------------------------------------------------------

TEST(FaultPlan, ParsesFullSpecAndRendersItBack) {
    const FaultPlan p = FaultPlan::parse(
        "seed=7,drop=0.1,dup=0.05,reorder=0.1,truncate=0.02,corrupt=0.02,"
        "delay=0.2,delay_ticks=3");
    EXPECT_EQ(p.seed, 7u);
    EXPECT_DOUBLE_EQ(p.drop, 0.1);
    EXPECT_DOUBLE_EQ(p.duplicate, 0.05);
    EXPECT_DOUBLE_EQ(p.reorder, 0.1);
    EXPECT_DOUBLE_EQ(p.truncate, 0.02);
    EXPECT_DOUBLE_EQ(p.corrupt, 0.02);
    EXPECT_DOUBLE_EQ(p.delay, 0.2);
    EXPECT_EQ(p.delay_ticks, 3u);
    EXPECT_TRUE(p.enabled());
    // spec() -> parse() must round-trip.
    const FaultPlan back = FaultPlan::parse(p.spec());
    EXPECT_EQ(back.spec(), p.spec());
}

TEST(FaultPlan, CleanSpecsAndJunkSpecs) {
    EXPECT_FALSE(FaultPlan::parse("").enabled());
    EXPECT_FALSE(FaultPlan::parse("none").enabled());
    EXPECT_THROW(FaultPlan::parse("drop"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("drop=1.5"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("drop=-0.1"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("drop=abc"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("warp=0.5"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("delay_ticks=0"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("seed="), std::invalid_argument);
}

// --- clean loopback == direct dispatch ----------------------------------------

TEST(WireChannelLoopback, CleanChannelMatchesDirectDispatch) {
    auto direct_dev = make_loaded_device();
    WireRig rig;

    for (int i = 0; i < 8; ++i) {
        const Status a = core::scenario::add_l2_entry(
            *direct_dev, core::scenario::host_mac(i), i % 4);
        const Status b = core::scenario::add_l2_entry(
            rig.client, core::scenario::host_mac(i), i % 4);
        EXPECT_EQ(a.ok, b.ok) << i;
        EXPECT_EQ(a.message, b.message) << i;
    }
    EXPECT_EQ(direct_dev->snapshot().to_string(),
              rig.client.snapshot().to_string());

    EXPECT_EQ(rig.channel.stats().requests, 9u);  // 8 adds + snapshot
    EXPECT_EQ(rig.channel.stats().retries, 0u);
    EXPECT_EQ(rig.channel.stats().timeouts, 0u);
    EXPECT_EQ(rig.traffic().faults_injected, 0u);
}

// --- faults masked by retries -------------------------------------------------

TEST(WireChannelLoopback, LossyLinkMaskedByRetries) {
    WireRig rig;
    rig.transport.set_fault_plan(FaultPlan::parse(
        "seed=3,drop=0.2,dup=0.1,reorder=0.1,corrupt=0.1,delay=0.2"));
    RetryPolicy policy;
    policy.max_attempts = 16;
    policy.timeout_ticks = 8;
    rig.channel.set_retry_policy(policy);

    for (int i = 0; i < 32; ++i) {
        const Status st = core::scenario::add_l2_entry(
            rig.client, core::scenario::host_mac(i), i % 4);
        EXPECT_TRUE(st.ok) << i << ": " << st.message;
    }
    // The plan must actually have bitten, and retries must have healed it.
    EXPECT_GT(rig.traffic().faults_injected, 0u);
    EXPECT_GT(rig.channel.stats().retries, 0u);
    EXPECT_EQ(rig.channel.stats().timeouts, 0u);
}

TEST(WireChannelLoopback, DuplicatedRequestsStayExactlyOnce) {
    // dup=1.0: every frame is delivered twice, so every non-idempotent op
    // reaches the server at least twice.  The dedup cache must keep the
    // device-visible effect exactly-once.
    auto direct_dev = make_loaded_device();
    WireRig rig;
    rig.transport.set_fault_plan(FaultPlan::parse("seed=1,dup=1.0"));

    for (int i = 0; i < 6; ++i) {
        EXPECT_TRUE(core::scenario::add_l2_entry(
                        rig.client, core::scenario::host_mac(i), i % 4)
                        .ok);
        EXPECT_TRUE(core::scenario::add_l2_entry(
                        *direct_dev, core::scenario::host_mac(i), i % 4)
                        .ok);
    }
    EXPECT_GT(rig.traffic().dedup_hits, 0u);
    // Identical device-visible state: the duplicated AddEntry frames did
    // not program anything twice.
    EXPECT_EQ(rig.device->snapshot().to_string(),
              direct_dev->snapshot().to_string());
}

TEST(WireChannelLoopback, TotalLossTimesOutWithDiagnosticStatus) {
    WireRig rig;
    rig.transport.set_fault_plan(FaultPlan::parse("seed=2,drop=1.0"));
    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.timeout_ticks = 4;
    rig.channel.set_retry_policy(policy);

    const Status st =
        core::scenario::add_l2_entry(rig.client, core::scenario::host_mac(1), 1);
    EXPECT_FALSE(st.ok);
    EXPECT_EQ(st.message.rfind("wire:", 0), 0u) << st.message;
    EXPECT_NE(st.message.find("timed out"), std::string::npos) << st.message;
    EXPECT_EQ(rig.channel.stats().timeouts, 1u);
    EXPECT_EQ(rig.channel.stats().frames_sent, 3u);
    EXPECT_EQ(rig.channel.stats().retries, 2u);
}

TEST(WireChannelLoopback, FaultScheduleIsDeterministic) {
    const auto run = [] {
        WireRig rig;
        rig.transport.set_fault_plan(FaultPlan::parse(
            "seed=9,drop=0.2,corrupt=0.2,delay=0.3,delay_ticks=2"));
        RetryPolicy policy;
        policy.max_attempts = 8;
        rig.channel.set_retry_policy(policy);
        for (int i = 0; i < 24; ++i) {
            (void)core::scenario::add_l2_entry(rig.client,
                                               core::scenario::host_mac(i),
                                               i % 4);
        }
        const ChannelStats s = rig.traffic();
        return std::to_string(s.requests) + "/" + std::to_string(s.frames_sent) +
               "/" + std::to_string(s.retries) + "/" +
               std::to_string(s.timeouts) + "/" +
               std::to_string(s.faults_injected);
    };
    const std::string first = run();
    EXPECT_EQ(first, run());
    EXPECT_EQ(first, run());

    // Pinned: CI's every-fault-kind plan under the default retry budget
    // yields exactly this schedule.  A change to the fault decisions, their
    // order, the hold rules or the retry loop moves these numbers.
    WireRig rig;
    rig.transport.set_fault_plan(FaultPlan::parse(
        "seed=5,drop=0.2,dup=0.2,reorder=0.2,truncate=0.2,corrupt=0.3,delay=0.2"));
    int accepted = 0;
    for (int i = 0; i < 64; ++i) {
        if (core::scenario::add_l2_entry(rig.client, core::scenario::host_mac(i),
                                         i % 4)
                .ok) {
            ++accepted;
        }
    }
    const ChannelStats s = rig.traffic();
    EXPECT_EQ(accepted, 7);
    EXPECT_EQ(s.requests, 64u);
    EXPECT_EQ(s.frames_sent, 243u);
    EXPECT_EQ(s.retries, 179u);
    EXPECT_EQ(s.timeouts, 57u);
    EXPECT_EQ(s.decode_errors, 0u);
    EXPECT_EQ(s.faults_injected, 281u);
    EXPECT_EQ(s.dedup_hits, 5u);
    // Ten adds reached the device: three of them timed out at the client
    // after the device had applied them.
    std::uint64_t dmac_entries = 0;
    for (const auto& t : rig.device->snapshot().tables) {
        if (t.name == "dmac") dmac_entries = t.entries;
    }
    EXPECT_EQ(dmac_entries, 10u);
}

// --- fd transport -------------------------------------------------------------

// What the clean end of a socketpair received, the faulted sender's fault
// count, and whether both ends are still alive.
struct SocketpairRoundTrip {
    std::vector<wire::Frame> received;
    std::uint64_t faults = 0;
    bool alive = false;
};

// Sends `f` once from a fresh socketpair end faulted by `plan`, then ticks
// both ends 20 times.
SocketpairRoundTrip round_trip(const wire::Frame& f, const FaultPlan& plan) {
    int sv[2];
    SocketpairRoundTrip out;
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return out;
    FdTransport a(sv[0], plan, 1);
    FdTransport b(sv[1]);
    a.send(f);
    for (int spin = 0; spin < 20; ++spin) {
        a.tick();
        b.tick();
        wire::Frame frame;
        while (b.next(frame)) out.received.push_back(frame);
    }
    out.faults = a.link().faults();
    out.alive = a.alive() && b.alive();
    return out;
}

TEST(FdTransport, RoundTripOverSocketpair) {
    wire::Frame f;
    f.kind = wire::FrameKind::heartbeat;
    f.seq = 31337;
    f.payload = {1, 2, 3};

    const SocketpairRoundTrip clean = round_trip(f, FaultPlan{});
    ASSERT_EQ(clean.received.size(), 1u);
    EXPECT_EQ(clean.received[0].seq, 31337u);
    EXPECT_EQ(clean.received[0].payload, f.payload);
    EXPECT_EQ(clean.faults, 0u);
    EXPECT_TRUE(clean.alive);

    // The end's fault plan applies to what it sends.
    const SocketpairRoundTrip doubled =
        round_trip(f, FaultPlan::parse("seed=1,dup=1.0"));
    ASSERT_EQ(doubled.received.size(), 2u);
    for (const wire::Frame& got : doubled.received) {
        EXPECT_EQ(got.seq, 31337u);
        EXPECT_EQ(got.payload, f.payload);
    }
    EXPECT_EQ(doubled.faults, 1u);

    const SocketpairRoundTrip lost =
        round_trip(f, FaultPlan::parse("seed=1,drop=1.0"));
    EXPECT_TRUE(lost.received.empty());
    EXPECT_EQ(lost.faults, 1u);
    EXPECT_TRUE(lost.alive);
}

TEST(FdTransport, PeerCloseIsDetected) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    FdTransport a(sv[0]);
    {
        FdTransport b(sv[1]);  // destructor closes the peer end
    }
    for (int spin = 0; spin < 100 && a.alive(); ++spin) a.tick();
    EXPECT_FALSE(a.alive());
}

}  // namespace
