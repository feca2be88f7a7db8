// Wire codec: randomized round-trips for every request/response variant,
// the version 2 bytes of every message kind, adversarial decoding
// (truncation, bit flips, hostile length fields and tags, wrong version),
// the fabric's telemetry delta payload, FrameReader
// resynchronization over a mangled stream, and the RuntimeClient
// payload-discriminator regression test.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "control/transport.h"
#include "control/wire.h"
#include "core/fabric.h"
#include "util/random.h"
#include "util/strings.h"

namespace {

using namespace ndb;
using namespace ndb::control;

// --- randomized value builders ------------------------------------------------

util::Bitvec random_bitvec(util::Rng& rng, int max_width = 96) {
    const int width = static_cast<int>(rng.next_range(1, max_width));
    util::Bitvec v(width);
    for (int i = 0; i < width; ++i) {
        if (rng.next_bool()) v.set_bit(i, true);
    }
    return v;
}

std::string random_name(util::Rng& rng) {
    static const char* kNames[] = {"acl", "routes", "meter0", "reg", "t"};
    std::string base = kNames[rng.next_below(5)];
    if (rng.next_bool(0.3)) base += std::to_string(rng.next_below(100));
    return base;
}

EntrySpec random_entry(util::Rng& rng) {
    EntrySpec e;
    const std::size_t keys = rng.next_below(4);
    for (std::size_t i = 0; i < keys; ++i) {
        e.key_values.push_back(random_bitvec(rng));
    }
    if (rng.next_bool()) {
        for (std::size_t i = 0; i < keys; ++i) {
            e.key_masks.push_back(random_bitvec(rng));
        }
    }
    e.prefix_len = static_cast<int>(rng.next_range(0, 33)) - 1;
    e.priority = static_cast<int>(rng.next_below(1000));
    e.action = random_name(rng);
    const std::size_t args = rng.next_below(3);
    for (std::size_t i = 0; i < args; ++i) {
        e.action_args.push_back(random_bitvec(rng));
    }
    return e;
}

MeterConfig random_meter(util::Rng& rng) {
    MeterConfig m;
    m.committed_rate_bps = rng.next_double() * 1e9;
    m.committed_burst = rng.next_u64() >> 20;
    m.excess_rate_bps = rng.next_double() * 1e9;
    m.excess_burst = rng.next_u64() >> 20;
    return m;
}

ConfigOp random_config_op(util::Rng& rng) {
    ConfigOp op;
    op.target = random_name(rng);
    switch (rng.next_below(4)) {
        case 0:
            op.kind = ConfigOp::Kind::add_entry;
            op.entry = random_entry(rng);
            break;
        case 1: {
            op.kind = ConfigOp::Kind::set_default_action;
            op.action = random_name(rng);
            const std::size_t args = rng.next_below(3);
            for (std::size_t i = 0; i < args; ++i) {
                op.action_args.push_back(random_bitvec(rng));
            }
            break;
        }
        case 2:
            op.kind = ConfigOp::Kind::write_register;
            op.index = rng.next_below(64);
            op.value = random_bitvec(rng);
            break;
        default:
            op.kind = ConfigOp::Kind::configure_meter;
            op.index = rng.next_below(64);
            op.meter = random_meter(rng);
            break;
    }
    return op;
}

Request random_request(util::Rng& rng) {
    switch (rng.next_below(5)) {
        case 0: return ReadRegisterReq{random_name(rng), rng.next_below(64)};
        case 1: return ReadCounterReq{random_name(rng), rng.next_below(64)};
        case 2: return SnapshotReq{};
        case 3: {
            ApplyConfigReq r;
            const std::size_t ops = rng.next_below(6);
            for (std::size_t i = 0; i < ops; ++i) {
                r.ops.push_back(random_config_op(rng));
            }
            return r;
        }
        default: return ResetReq{};
    }
}

StatusSnapshot random_snapshot(util::Rng& rng) {
    StatusSnapshot s;
    s.taken_at_ns = rng.next_u64();
    s.stages.parser_in = rng.next_below(1000);
    s.stages.parser_accepted = rng.next_below(1000);
    s.stages.parser_rejected = rng.next_below(1000);
    s.stages.parser_errors = rng.next_below(1000);
    s.stages.ingress_dropped = rng.next_below(1000);
    s.stages.egress_dropped = rng.next_below(1000);
    s.stages.forwarded = rng.next_below(1000);
    s.misdirected = rng.next_below(100);
    const std::size_t ports = rng.next_below(4);
    for (std::size_t i = 0; i < ports; ++i) {
        s.ports.push_back({rng.next_u64(), rng.next_u64(), rng.next_u64(),
                           rng.next_u64()});
    }
    const std::size_t tables = rng.next_below(3);
    for (std::size_t i = 0; i < tables; ++i) {
        s.tables.push_back({random_name(rng), rng.next_below(100),
                            rng.next_below(100), rng.next_below(100),
                            rng.next_below(100)});
    }
    static const char* kKinds[] = {"register", "counter", "meter"};
    const std::size_t externs = rng.next_below(3);
    for (std::size_t i = 0; i < externs; ++i) {
        s.externs.push_back({random_name(rng), kKinds[rng.next_below(3)],
                             rng.next_below(64), rng.next_u64(),
                             rng.next_below(4)});
    }
    return s;
}

// --- equality helpers (the structs carry no operator==) -----------------------

void expect_entry_eq(const EntrySpec& a, const EntrySpec& b) {
    EXPECT_EQ(a.key_values, b.key_values);
    EXPECT_EQ(a.key_masks, b.key_masks);
    EXPECT_EQ(a.prefix_len, b.prefix_len);
    EXPECT_EQ(a.priority, b.priority);
    EXPECT_EQ(a.action, b.action);
    EXPECT_EQ(a.action_args, b.action_args);
}

void expect_request_eq(const Request& a, const Request& b) {
    ASSERT_EQ(a.index(), b.index());
    if (const auto* x6 = std::get_if<ReadRegisterReq>(&a)) {
        const auto& y = std::get<ReadRegisterReq>(b);
        EXPECT_EQ(x6->name, y.name);
        EXPECT_EQ(x6->index, y.index);
    } else if (const auto* x7 = std::get_if<ReadCounterReq>(&a)) {
        const auto& y = std::get<ReadCounterReq>(b);
        EXPECT_EQ(x7->name, y.name);
        EXPECT_EQ(x7->index, y.index);
    } else if (const auto* x9 = std::get_if<ApplyConfigReq>(&a)) {
        const auto& y = std::get<ApplyConfigReq>(b);
        ASSERT_EQ(x9->ops.size(), y.ops.size());
        for (std::size_t i = 0; i < x9->ops.size(); ++i) {
            const ConfigOp& p = x9->ops[i];
            const ConfigOp& q = y.ops[i];
            ASSERT_EQ(p.kind, q.kind);
            EXPECT_EQ(p.target, q.target);
            switch (p.kind) {
                case ConfigOp::Kind::add_entry:
                    expect_entry_eq(p.entry, q.entry);
                    break;
                case ConfigOp::Kind::set_default_action:
                    EXPECT_EQ(p.action, q.action);
                    EXPECT_EQ(p.action_args, q.action_args);
                    break;
                case ConfigOp::Kind::write_register:
                    EXPECT_EQ(p.index, q.index);
                    EXPECT_EQ(p.value, q.value);
                    break;
                case ConfigOp::Kind::configure_meter:
                    EXPECT_EQ(p.index, q.index);
                    EXPECT_EQ(p.meter.committed_rate_bps, q.meter.committed_rate_bps);
                    EXPECT_EQ(p.meter.committed_burst, q.meter.committed_burst);
                    EXPECT_EQ(p.meter.excess_rate_bps, q.meter.excess_rate_bps);
                    EXPECT_EQ(p.meter.excess_burst, q.meter.excess_burst);
                    break;
            }
        }
    }
}

void expect_snapshot_eq(const StatusSnapshot& a, const StatusSnapshot& b) {
    EXPECT_EQ(a.taken_at_ns, b.taken_at_ns);
    EXPECT_EQ(a.stages.parser_in, b.stages.parser_in);
    EXPECT_EQ(a.stages.parser_accepted, b.stages.parser_accepted);
    EXPECT_EQ(a.stages.parser_rejected, b.stages.parser_rejected);
    EXPECT_EQ(a.stages.parser_errors, b.stages.parser_errors);
    EXPECT_EQ(a.stages.ingress_dropped, b.stages.ingress_dropped);
    EXPECT_EQ(a.stages.egress_dropped, b.stages.egress_dropped);
    EXPECT_EQ(a.stages.forwarded, b.stages.forwarded);
    EXPECT_EQ(a.misdirected, b.misdirected);
    ASSERT_EQ(a.ports.size(), b.ports.size());
    for (std::size_t i = 0; i < a.ports.size(); ++i) {
        EXPECT_EQ(a.ports[i].rx_packets, b.ports[i].rx_packets);
        EXPECT_EQ(a.ports[i].tx_bytes, b.ports[i].tx_bytes);
    }
    ASSERT_EQ(a.tables.size(), b.tables.size());
    for (std::size_t i = 0; i < a.tables.size(); ++i) {
        EXPECT_EQ(a.tables[i].name, b.tables[i].name);
        EXPECT_EQ(a.tables[i].hits, b.tables[i].hits);
        EXPECT_EQ(a.tables[i].misses, b.tables[i].misses);
        EXPECT_EQ(a.tables[i].entries, b.tables[i].entries);
        EXPECT_EQ(a.tables[i].capacity, b.tables[i].capacity);
    }
    ASSERT_EQ(a.externs.size(), b.externs.size());
    for (std::size_t i = 0; i < a.externs.size(); ++i) {
        EXPECT_EQ(a.externs[i].name, b.externs[i].name);
        EXPECT_EQ(a.externs[i].kind, b.externs[i].kind);
        EXPECT_EQ(a.externs[i].cells, b.externs[i].cells);
        EXPECT_EQ(a.externs[i].state_hash, b.externs[i].state_hash);
        EXPECT_EQ(a.externs[i].unconfigured_meters, b.externs[i].unconfigured_meters);
    }
}

// --- round trips --------------------------------------------------------------

TEST(WireCodec, RequestRoundTripRandomized) {
    util::Rng rng(0x51c0'ffeeull);
    for (int iter = 0; iter < 500; ++iter) {
        const Request request = random_request(rng);
        const auto payload = wire::encode_request(request);
        Request back;
        const wire::Decode d = wire::decode_request(payload, back);
        ASSERT_TRUE(d.ok) << d.reason;
        expect_request_eq(request, back);
    }
}

TEST(WireCodec, ResponseRoundTripEveryPayloadKind) {
    util::Rng rng(99);
    for (int iter = 0; iter < 200; ++iter) {
        Response r;
        r.status = rng.next_bool() ? Status::success()
                                   : Status::failure("injected failure #" +
                                                     std::to_string(iter));
        switch (rng.next_below(5)) {
            case 0: r.payload = Response::Payload::none; break;
            case 1:
                r.payload = Response::Payload::register_value;
                r.register_value = random_bitvec(rng);
                break;
            case 2:
                r.payload = Response::Payload::counter_value;
                r.counter_value = {rng.next_u64(), rng.next_u64()};
                break;
            case 3: {
                r.payload = Response::Payload::op_statuses;
                const std::size_t n = rng.next_below(5);
                for (std::size_t i = 0; i < n; ++i) {
                    r.op_statuses.push_back(
                        rng.next_bool() ? Status::success()
                                        : Status::failure("op failed #" +
                                                          std::to_string(i)));
                }
                break;
            }
            default:
                r.payload = Response::Payload::snapshot;
                r.snapshot = random_snapshot(rng);
                break;
        }
        const auto payload = wire::encode_response(r);
        Response back;
        const wire::Decode d = wire::decode_response(payload, back);
        ASSERT_TRUE(d.ok) << d.reason;
        EXPECT_EQ(r.status.ok, back.status.ok);
        EXPECT_EQ(r.status.message, back.status.message);
        ASSERT_EQ(r.payload, back.payload);
        switch (r.payload) {
            case Response::Payload::register_value:
                EXPECT_EQ(r.register_value, back.register_value);
                break;
            case Response::Payload::counter_value:
                EXPECT_EQ(r.counter_value.packets, back.counter_value.packets);
                EXPECT_EQ(r.counter_value.bytes, back.counter_value.bytes);
                break;
            case Response::Payload::snapshot:
                expect_snapshot_eq(r.snapshot, back.snapshot);
                break;
            case Response::Payload::op_statuses:
                ASSERT_EQ(r.op_statuses.size(), back.op_statuses.size());
                for (std::size_t i = 0; i < r.op_statuses.size(); ++i) {
                    EXPECT_EQ(r.op_statuses[i].ok, back.op_statuses[i].ok);
                    EXPECT_EQ(r.op_statuses[i].message,
                              back.op_statuses[i].message);
                }
                break;
            case Response::Payload::none:
                break;
        }
    }
}

TEST(WireCodec, FrameRoundTrip) {
    util::Rng rng(5);
    for (int iter = 0; iter < 100; ++iter) {
        wire::Frame f;
        f.kind = static_cast<wire::FrameKind>(rng.next_range(1, 7));
        f.seq = rng.next_u64();
        f.payload.resize(rng.next_below(300));
        for (auto& b : f.payload) {
            b = static_cast<std::uint8_t>(rng.next_below(256));
        }
        const auto bytes = wire::encode_frame(f);
        wire::Frame back;
        const wire::Decode d = wire::decode_frame(bytes, back);
        ASSERT_TRUE(d.ok) << d.reason;
        EXPECT_EQ(f.kind, back.kind);
        EXPECT_EQ(f.seq, back.seq);
        EXPECT_EQ(f.payload, back.payload);
    }
}

// --- format pin ---------------------------------------------------------------

std::string hex(std::span<const std::uint8_t> bytes) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    for (const std::uint8_t b : bytes) {
        out += kDigits[b >> 4];
        out += kDigits[b & 15];
    }
    return out;
}

// Encodes `value`, compares the bytes with `want`, then decodes them and
// re-encodes what came back: the reader must restore every field the
// writer put down.
template <class T, class EncodeFn, class DecodeFn>
void expect_pinned(const T& value, EncodeFn encode, DecodeFn decode,
                   std::string_view want) {
    const std::vector<std::uint8_t> bytes = encode(value);
    EXPECT_EQ(hex(bytes), want);
    T back;
    const wire::Decode d = decode(bytes, back);
    ASSERT_TRUE(d.ok) << d.reason;
    EXPECT_EQ(hex(encode(back)), want) << "the decode lost a field";
}

TEST(WireCodec, EncodingsMatchVersion2Bytes) {
    // One fixed value of every message the wire carries, with the bytes its
    // kVersion 2 encoding had when they were recorded.  A layout change
    // shows up here as a byte diff; a deliberate one bumps wire::kVersion
    // and re-records.
    ASSERT_EQ(wire::kVersion, 2);

    ConfigOp add;
    add.kind = ConfigOp::Kind::add_entry;
    add.target = "acl";
    add.entry.key_values = {util::Bitvec(12, 0xabc), util::Bitvec(1, 1)};
    add.entry.key_masks = {util::Bitvec(12, 0xff0)};
    add.entry.prefix_len = -1;
    add.entry.priority = 7;
    add.entry.action = "drop";
    add.entry.action_args = {util::Bitvec(9, 0x101)};
    ConfigOp def;
    def.kind = ConfigOp::Kind::set_default_action;
    def.target = "routes";
    def.action = "fwd";
    def.action_args = {util::Bitvec(16, 0x0102)};
    ConfigOp reg;
    reg.kind = ConfigOp::Kind::write_register;
    reg.target = "reg";
    reg.index = 5;
    reg.value = util::Bitvec(70);
    reg.value.set_bit(69, true);
    reg.value.set_bit(0, true);
    ConfigOp meter;
    meter.kind = ConfigOp::Kind::configure_meter;
    meter.target = "m";
    meter.index = 2;
    meter.meter = {1.5e6, 3000, 2.5e6, 6000};
    const std::pair<Request, std::string_view> requests[] = {
        {ReadRegisterReq{"reg", 7}, "0003000000726567" "0700000000000000"},
        {ReadCounterReq{"hits", 258}, "010400000068697473" "0201000000000000"},
        {SnapshotReq{}, "02"},
        {ResetReq{}, "03"},
        {ApplyConfigReq{{add, def, reg, meter}},
         "0404000000000300000061636c020000000c0000000abc010000000101000000"
         "0c0000000ff0ffffffff070000000400000064726f7001000000090000000101"
         "0106000000726f75746573030000006677640100000010000000010202030000"
         "0072656705000000000000004600000020000000000000000103010000006d02"
         "000000000000000000000060e33641b80b00000000000000000000d012434170"
         "17000000000000"},
    };
    for (const auto& [request, want] : requests) {
        SCOPED_TRACE(request.index());
        expect_pinned(request, wire::encode_request, wire::decode_request, want);
    }

    Response none;
    none.status = Status::failure("no such table");
    Response value;
    value.payload = Response::Payload::register_value;
    value.register_value = util::Bitvec(12, 0x5a5);
    Response counter;
    counter.payload = Response::Payload::counter_value;
    counter.counter_value = {3, 180};
    Response snapshot;
    snapshot.payload = Response::Payload::snapshot;
    snapshot.snapshot.taken_at_ns = 1000;
    snapshot.snapshot.stages = {9, 8, 1, 0, 2, 1, 5};
    snapshot.snapshot.misdirected = 1;
    snapshot.snapshot.ports = {{4, 256, 3, 192}};
    snapshot.snapshot.tables = {{"acl", 6, 2, 1, 64}};
    snapshot.snapshot.externs = {{"seen", "register", 16, 0xfeed, 0}};
    Response statuses;
    statuses.payload = Response::Payload::op_statuses;
    statuses.op_statuses = {Status::success(), Status::failure("dup")};
    const std::pair<Response, std::string_view> responses[] = {
        {none, "00000d0000006e6f2073756368207461626c65"},
        {value, "0101000000000c00000005a5"},
        {counter, "0201000000000300000000000000b400000000000000"},
        {snapshot,
         "030100000000e803000000000000090000000000000008000000000000000100"
         "0000000000000000000000000000020000000000000001000000000000000500"
         "0000000000000100000000000000010000000400000000000000000100000000"
         "00000300000000000000c000000000000000010000000300000061636c060000"
         "0000000000020000000000000001000000000000004000000000000000010000"
         "00040000007365656e0800000072656769737465721000000000000000edfe00"
         "00000000000000000000000000"},
        {statuses, "0401000000000200000001000000000003000000647570"},
    };
    for (const auto& [response, want] : responses) {
        SCOPED_TRACE(static_cast<int>(response.payload));
        expect_pinned(response, wire::encode_response, wire::decode_response, want);
    }

    // The delta's length follows obs's counter, gauge and histogram counts,
    // so its bytes are pinned by length and FNV-1a digest.
    obs::TelemetryDelta delta;
    delta.pid = 77;
    delta.metrics.counters[static_cast<std::size_t>(obs::Counter::packets)] = 12;
    delta.metrics.gauges[static_cast<std::size_t>(obs::Gauge::fabric_workers)] = -2;
    delta.metrics.hists[static_cast<std::size_t>(obs::Hist::scenario_ns)].buckets[3] = 4;
    obs::TraceEventRecord ev;
    ev.name = "scenario";
    ev.arg0 = "seed";
    ev.v0 = 17;
    ev.ts_ns = 1000;
    ev.dur_ns = 250;
    ev.tid = 9;
    delta.events.push_back(ev);
    const std::vector<std::uint8_t> delta_bytes = wire::encode_telemetry_delta(delta);
    EXPECT_EQ(delta_bytes.size(), 5360u);
    EXPECT_EQ(util::fnv1a_64(std::string_view(
                  reinterpret_cast<const char*>(delta_bytes.data()), delta_bytes.size())),
              0x2029d373805ddefdull);
    obs::TelemetryDelta delta_back;
    ASSERT_TRUE(wire::decode_telemetry_delta(delta_bytes, delta_back));
    EXPECT_EQ(wire::encode_telemetry_delta(delta_back), delta_bytes);

    expect_pinned(core::ShardJob{40, 4}, core::encode_shard_job, core::decode_shard_job,
                  "280000000000000004000000");

    core::DivergenceRecord finding;
    finding.seed = 11;
    finding.backend = "sdnet";
    finding.program = "reject_filter";
    finding.quirk_signature = "accept_on_reject";
    finding.kind = "output";
    finding.detail = "pkt 1 dropped";
    finding.first_diverging_packet = 1;
    finding.minimized_count = 1;
    finding.minimized_reproduces = true;
    finding.localized.diverged = true;
    finding.localized.stage = dataplane::Stage::ingress;
    finding.localized.description = "table acl";
    finding.localized.probes = 1;
    finding.localized.packets_replayed = 2;
    finding.localized.conclusive = true;
    finding.recipe = "#r";
    finding.fingerprint = "sdnet|q|ingress";
    core::ScenarioOutcome found;
    found.packets = 6;
    found.mgmt = {1, 3, 2, 1, 1, 4, 1};
    found.findings = {finding};
    core::ScenarioOutcome clean;
    clean.packets = 3;
    expect_pinned(core::ShardResult{9, 2, {found, clean}}, core::encode_shard_result,
                  core::decode_shard_result,
                  "0900000000000000020000000000000002000000060000000000000001000000"
                  "0000000003000000000000000200000000000000010000000000000001000000"
                  "0000000004000000000000000100000000000000010000000b00000000000000"
                  "0500000073646e65740d00000072656a6563745f66696c746572100000006163"
                  "636570745f6f6e5f72656a656374060000006f75747075740d000000706b7420"
                  "312064726f707065640100000000000000010000000000000001010109000000"
                  "7461626c652061636c010000000200000000000000010200000023720f000000"
                  "73646e65747c717c696e67726573730300000000000000000000000000000000"
                  "0000000000000000000000000000000000000000000000000000000000000000"
                  "00000000000000000000000000000000000000");
}

// --- adversarial decoding -----------------------------------------------------

TEST(WireCodec, TruncatedFrameEveryPrefixRejected) {
    wire::Frame f;
    f.kind = wire::FrameKind::control_request;
    f.seq = 42;
    f.payload = {1, 2, 3, 4, 5, 6, 7, 8};
    const auto bytes = wire::encode_frame(f);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        wire::Frame out;
        const wire::Decode d = wire::decode_frame(
            std::span<const std::uint8_t>(bytes.data(), len), out);
        EXPECT_FALSE(d.ok) << "prefix of " << len << " bytes decoded";
        EXPECT_FALSE(d.reason.empty());
    }
}

TEST(WireCodec, EveryBitFlipIsDetected) {
    wire::Frame f;
    f.kind = wire::FrameKind::control_response;
    f.seq = 7;
    f.payload = {0xde, 0xad, 0xbe, 0xef};
    const auto clean = wire::encode_frame(f);
    for (std::size_t byte = 0; byte < clean.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            auto mangled = clean;
            mangled[byte] ^= static_cast<std::uint8_t>(1u << bit);
            wire::Frame out;
            const wire::Decode d = wire::decode_frame(mangled, out);
            EXPECT_FALSE(d.ok)
                << "flip of byte " << byte << " bit " << bit << " undetected";
        }
    }
}

TEST(WireCodec, HostileHeaderFieldsRejected) {
    wire::Frame f;
    f.kind = wire::FrameKind::job;
    f.seq = 1;
    f.payload = {9, 9, 9};
    const auto clean = wire::encode_frame(f);
    wire::Frame out;

    auto wrong_version = clean;
    wrong_version[4] = wire::kVersion + 1;
    wire::Decode d = wire::decode_frame(wrong_version, out);
    EXPECT_FALSE(d.ok);
    EXPECT_NE(d.reason.find("version"), std::string::npos) << d.reason;

    // A well-formed frame from a version-1 peer, whose request tags meant
    // other requests: the checksum holds, and the version byte condemns it.
    auto version_1 = clean;
    version_1[4] = 1;
    std::string covered(reinterpret_cast<const char*>(version_1.data()), 18);
    covered.append(reinterpret_cast<const char*>(version_1.data()) + wire::kHeaderBytes,
                   version_1.size() - wire::kHeaderBytes);
    const std::uint64_t sum = util::fnv1a_64(covered);
    for (int i = 0; i < 8; ++i) {
        version_1[18 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(sum >> (8 * i));
    }
    d = wire::decode_frame(version_1, out);
    EXPECT_FALSE(d.ok);
    EXPECT_NE(d.reason.find("version 1"), std::string::npos) << d.reason;

    auto wrong_kind = clean;
    wrong_kind[5] = 0;  // below the FrameKind range
    d = wire::decode_frame(wrong_kind, out);
    EXPECT_FALSE(d.ok);

    auto wrong_magic = clean;
    wrong_magic[0] ^= 0xff;
    d = wire::decode_frame(wrong_magic, out);
    EXPECT_FALSE(d.ok);
    EXPECT_NE(d.reason.find("magic"), std::string::npos) << d.reason;

    // A length field claiming more than kMaxPayloadBytes must be rejected
    // before any allocation is attempted.
    auto oversized = clean;
    oversized[14] = 0xff;
    oversized[15] = 0xff;
    oversized[16] = 0xff;
    oversized[17] = 0x7f;
    d = wire::decode_frame(oversized, out);
    EXPECT_FALSE(d.ok);

    auto trailing = clean;
    trailing.push_back(0x00);
    d = wire::decode_frame(trailing, out);
    EXPECT_FALSE(d.ok);
    EXPECT_NE(d.reason.find("trailing"), std::string::npos) << d.reason;
}

TEST(WireCodec, RequestDecoderSurvivesTruncationAndGarbage) {
    util::Rng rng(1234);
    for (int iter = 0; iter < 100; ++iter) {
        const Request request = random_request(rng);
        const auto payload = wire::encode_request(request);
        // Every strict prefix must fail cleanly (never crash, never succeed:
        // the decoder requires full consumption).
        for (std::size_t len = 0; len < payload.size(); ++len) {
            Request out;
            const wire::Decode d = wire::decode_request(
                std::span<const std::uint8_t>(payload.data(), len), out);
            EXPECT_FALSE(d.ok);
            EXPECT_FALSE(d.reason.empty());
        }
        // Pure noise payloads must be rejected or decode to *something*
        // without crashing; under ASan/UBSan this doubles as a memory test.
        std::vector<std::uint8_t> noise(rng.next_below(64));
        for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_below(256));
        Request out;
        (void)wire::decode_request(noise, out);
    }
    // Tags past the five request kinds name no request (version 1 numbered
    // eleven kinds, up to tag 10).
    for (unsigned tag = 5; tag <= 255; ++tag) {
        const std::vector<std::uint8_t> payload = {static_cast<std::uint8_t>(tag)};
        Request out;
        const wire::Decode d = wire::decode_request(payload, out);
        EXPECT_FALSE(d.ok) << "tag " << tag;
        EXPECT_NE(d.reason.find("unknown request tag"), std::string::npos)
            << d.reason;
    }
}

Response random_response(util::Rng& rng, Response::Payload kind) {
    Response r;
    r.status = rng.next_bool() ? Status::success() : Status::failure("failed");
    r.payload = kind;
    switch (kind) {
        case Response::Payload::none: break;
        case Response::Payload::register_value:
            r.register_value = random_bitvec(rng);
            break;
        case Response::Payload::counter_value:
            r.counter_value = {rng.next_u64(), rng.next_u64()};
            break;
        case Response::Payload::snapshot:
            r.snapshot = random_snapshot(rng);
            break;
        case Response::Payload::op_statuses:
            for (std::size_t i = rng.next_below(4); i > 0; --i) {
                r.op_statuses.push_back(rng.next_bool() ? Status::success()
                                                        : Status::failure("op"));
            }
            break;
    }
    return r;
}

TEST(WireCodec, ResponseDecoderSurvivesTruncationAndGarbage) {
    util::Rng rng(4321);
    for (int iter = 0; iter < 100; ++iter) {
        const auto kind = static_cast<Response::Payload>(iter % 5);
        const auto payload = wire::encode_response(random_response(rng, kind));
        // Every strict prefix fails with a reason, including the one that
        // ends right after the kind byte, before the status flag.
        for (std::size_t len = 0; len < payload.size(); ++len) {
            Response out;
            const wire::Decode d = wire::decode_response(
                std::span<const std::uint8_t>(payload.data(), len), out);
            EXPECT_FALSE(d.ok) << "kind " << iter % 5 << ", prefix of " << len
                               << " bytes decoded";
            EXPECT_FALSE(d.reason.empty());
        }
        std::vector<std::uint8_t> noise(rng.next_below(64));
        for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_below(256));
        Response out;
        (void)wire::decode_response(noise, out);
    }
    // Kinds past op_statuses name no payload; a status flag must be 0 or 1.
    // Each payload is otherwise well-formed: the kind byte, the flag byte and
    // an empty status message.
    for (unsigned byte = 2; byte <= 255; ++byte) {
        const auto b = static_cast<std::uint8_t>(byte);
        Response out;
        if (byte >= 5) {
            const wire::Decode d = wire::decode_response(
                std::vector<std::uint8_t>{b, 1, 0, 0, 0, 0}, out);
            EXPECT_FALSE(d.ok) << "kind " << byte;
            EXPECT_NE(d.reason.find("unknown response payload kind"), std::string::npos)
                << d.reason;
        }
        const wire::Decode d = wire::decode_response(
            std::vector<std::uint8_t>{0, b, 0, 0, 0, 0}, out);
        EXPECT_FALSE(d.ok) << "flag " << byte;
        EXPECT_NE(d.reason.find("neither 0 nor 1"), std::string::npos) << d.reason;
    }
}

TEST(WireCodec, BitvecWithDirtyExcessBitsRejected) {
    // width=4 packed into one byte: the top 4 bits must be zero on the
    // wire; a dirty image must fail the decode, not throw out of
    // Bitvec::from_bytes.
    wire::Writer w;
    w.i32(4);       // width 4
    w.u8(0xf7);     // excess high bits set
    const std::vector<std::uint8_t> payload = w.take();
    wire::Reader r(payload);
    util::Bitvec v;
    EXPECT_FALSE(r.bitvec(v));
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.error().empty());
}

// --- FrameReader resynchronization --------------------------------------------

TEST(WireCodec, TelemetryDeltaRoundTripsAndRejectsTruncation) {
    obs::TelemetryDelta delta;
    delta.pid = 4242;
    delta.metrics.counters[static_cast<std::size_t>(obs::Counter::packets)] = 99;
    delta.metrics.gauges[static_cast<std::size_t>(obs::Gauge::fabric_workers)] =
        -3;
    delta.metrics.hists[static_cast<std::size_t>(obs::Hist::scenario_ns)]
        .buckets[12] = 5;
    obs::TraceEventRecord ev;
    ev.name = "scenario";
    ev.arg0 = "seed";
    ev.v0 = 17;
    ev.arg1 = "findings";
    ev.v1 = 2;
    ev.ts_ns = 1000;
    ev.dur_ns = 250;
    ev.tid = 9;
    delta.events.push_back(ev);

    const std::vector<std::uint8_t> bytes = wire::encode_telemetry_delta(delta);
    obs::TelemetryDelta out;
    const wire::Decode good = wire::decode_telemetry_delta(bytes, out);
    ASSERT_TRUE(good) << good.reason;
    EXPECT_EQ(out.pid, 4242u);
    EXPECT_EQ(out.metrics, delta.metrics);
    ASSERT_EQ(out.events.size(), 1u);
    EXPECT_EQ(out.events[0].name, "scenario");
    EXPECT_EQ(out.events[0].v0, 17u);
    EXPECT_EQ(out.events[0].dur_ns, 250u);
    // Decoding stamps the shipping process's pid onto each event.
    EXPECT_EQ(out.events[0].pid, 4242u);

    // Any truncation fails whole; so does a trailing byte.
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        obs::TelemetryDelta scratch;
        const std::vector<std::uint8_t> head(bytes.begin(),
                                             bytes.begin() + cut);
        EXPECT_FALSE(wire::decode_telemetry_delta(head, scratch))
            << "cut at " << cut;
    }
    obs::TelemetryDelta scratch;
    std::vector<std::uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(wire::decode_telemetry_delta(padded, scratch));

    // Each section count must match this build's: a sender built with one
    // more counter, gauge, histogram or bucket is refused with a reason.
    const std::size_t counters = 8;
    const std::size_t gauges = counters + 4 + 8 * obs::kNumCounters;
    const std::size_t hists = gauges + 4 + 8 * obs::kNumGauges;
    const std::size_t buckets = hists + 4;
    const std::size_t events =
        buckets + 4 + 8 * obs::kNumHists * obs::kHistBuckets;
    for (const std::size_t at : {counters, gauges, hists, buckets}) {
        std::vector<std::uint8_t> skewed = bytes;
        ++skewed[at];
        const wire::Decode d = wire::decode_telemetry_delta(skewed, scratch);
        EXPECT_FALSE(d) << "count at " << at;
        EXPECT_NE(d.reason.find("this build has"), std::string::npos) << d.reason;
    }

    // An event count above the cap is refused before any event is read.
    std::vector<std::uint8_t> flood = bytes;
    const auto cap = static_cast<std::uint32_t>(wire::kMaxTelemetryEvents + 1);
    for (int i = 0; i < 4; ++i) {
        flood[events + i] = static_cast<std::uint8_t>(cap >> (8 * i));
    }
    const wire::Decode d = wire::decode_telemetry_delta(flood, scratch);
    EXPECT_FALSE(d);
    EXPECT_NE(d.reason.find("cap"), std::string::npos) << d.reason;
}

TEST(FrameReader, ExtractsFramesAcrossGarbageAndSplitFeeds) {
    util::Rng rng(777);
    std::vector<wire::Frame> sent;
    std::vector<std::uint8_t> stream;
    const auto junk = [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            stream.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
        }
    };
    junk(17);
    for (int i = 0; i < 20; ++i) {
        wire::Frame f;
        f.kind = wire::FrameKind::heartbeat;
        f.seq = static_cast<std::uint64_t>(i);
        f.payload.resize(rng.next_below(40));
        for (auto& b : f.payload) {
            b = static_cast<std::uint8_t>(rng.next_below(256));
        }
        const auto bytes = wire::encode_frame(f);
        stream.insert(stream.end(), bytes.begin(), bytes.end());
        sent.push_back(std::move(f));
        if (rng.next_bool(0.4)) junk(rng.next_below(30));
    }

    // Feed in random-sized chunks so frames straddle feed() boundaries.
    wire::FrameReader reader;
    std::vector<wire::Frame> got;
    std::size_t pos = 0;
    while (pos < stream.size()) {
        const std::size_t n =
            std::min<std::size_t>(1 + rng.next_below(13), stream.size() - pos);
        reader.feed(std::span<const std::uint8_t>(stream.data() + pos, n));
        pos += n;
        wire::Frame f;
        while (reader.next(f)) got.push_back(f);
    }

    // Random junk can eat a following frame (it may contain a partial fake
    // header that swallows real bytes), but most frames must survive and
    // every extracted frame must be one we sent, in order.
    ASSERT_GE(got.size(), sent.size() / 2);
    std::size_t cursor = 0;
    for (const auto& f : got) {
        while (cursor < sent.size() && sent[cursor].seq != f.seq) ++cursor;
        ASSERT_LT(cursor, sent.size()) << "reader invented a frame";
        EXPECT_EQ(sent[cursor].payload, f.payload);
        ++cursor;
    }
    EXPECT_GT(reader.stats().frames, 0u);
    EXPECT_GT(reader.stats().bytes_skipped, 0u);
}

TEST(FrameReader, CorruptFrameDoesNotPoisonSuccessors) {
    wire::Frame a;
    a.kind = wire::FrameKind::job;
    a.seq = 1;
    a.payload = {1, 1, 1};
    wire::Frame b = a;
    b.seq = 2;
    auto bytes_a = wire::encode_frame(a);
    const auto bytes_b = wire::encode_frame(b);
    bytes_a[wire::kHeaderBytes] ^= 0x40;  // corrupt a's payload

    wire::FrameReader reader;
    reader.feed(bytes_a);
    reader.feed(bytes_b);
    wire::Frame out;
    ASSERT_TRUE(reader.next(out));
    EXPECT_EQ(out.seq, 2u);
    EXPECT_FALSE(reader.next(out));
    EXPECT_EQ(reader.stats().corrupt_frames, 1u);
    EXPECT_FALSE(reader.stats().last_error.empty());
}

// --- client regressions -------------------------------------------------------

// A device end that answers every request frame with a counter-value
// response, whatever the request asked for.
class CounterAnsweringTransport final : public Transport {
public:
    void send(const wire::Frame& request) override {
        Response r;
        r.payload = Response::Payload::counter_value;
        r.counter_value = {5, 5};
        pending_.push_back({wire::FrameKind::control_response, request.seq,
                            wire::encode_response(r)});
    }
    bool next(wire::Frame& out) override {
        if (pending_.empty()) return false;
        out = std::move(pending_.front());
        pending_.pop_front();
        return true;
    }
    void tick() override {}

private:
    std::deque<wire::Frame> pending_;
};

TEST(RuntimeClient, PayloadDiscriminatorMismatchIsAProtocolError) {
    // A well-formed response with the wrong payload kind for a register
    // read: the typed client must surface a protocol error, not hand back
    // a default-constructed Bitvec.
    CounterAnsweringTransport transport;
    WireChannel channel(transport);
    RuntimeClient client(channel);
    util::Bitvec out;
    const Status st = client.read_register("reg", 0, out);
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.message.find("payload"), std::string::npos) << st.message;
    EXPECT_EQ(channel.stats().timeouts, 0u);
    EXPECT_EQ(channel.stats().decode_errors, 0u);
}

}  // namespace
