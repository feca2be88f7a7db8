// Wire codec: randomized round-trips for every request/response variant,
// adversarial decoding (truncation, bit flips, hostile length fields, wrong
// version), FrameReader resynchronization over a mangled stream, and the
// RuntimeClient payload-discriminator regression test.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "control/transport.h"
#include "control/wire.h"
#include "util/random.h"

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
    switch (rng.next_below(11)) {
        case 0: return AddEntryReq{random_name(rng), random_entry(rng)};
        case 1: return DeleteEntryReq{random_name(rng), random_entry(rng)};
        case 2: {
            SetDefaultReq r;
            r.table = random_name(rng);
            r.action = random_name(rng);
            const std::size_t args = rng.next_below(3);
            for (std::size_t i = 0; i < args; ++i) {
                r.args.push_back(random_bitvec(rng));
            }
            return r;
        }
        case 3: return ClearTableReq{random_name(rng)};
        case 4:
            return WriteRegisterReq{random_name(rng), rng.next_below(64),
                                    random_bitvec(rng)};
        case 5: return ReadRegisterReq{random_name(rng), rng.next_below(64)};
        case 6: return ReadCounterReq{random_name(rng), rng.next_below(64)};
        case 7:
            return ConfigureMeterReq{random_name(rng), rng.next_below(64),
                                     random_meter(rng)};
        case 8: return SnapshotReq{};
        case 9: {
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
    if (const auto* x = std::get_if<AddEntryReq>(&a)) {
        const auto& y = std::get<AddEntryReq>(b);
        EXPECT_EQ(x->table, y.table);
        expect_entry_eq(x->entry, y.entry);
    } else if (const auto* x2 = std::get_if<DeleteEntryReq>(&a)) {
        const auto& y = std::get<DeleteEntryReq>(b);
        EXPECT_EQ(x2->table, y.table);
        expect_entry_eq(x2->entry, y.entry);
    } else if (const auto* x3 = std::get_if<SetDefaultReq>(&a)) {
        const auto& y = std::get<SetDefaultReq>(b);
        EXPECT_EQ(x3->table, y.table);
        EXPECT_EQ(x3->action, y.action);
        EXPECT_EQ(x3->args, y.args);
    } else if (const auto* x4 = std::get_if<ClearTableReq>(&a)) {
        EXPECT_EQ(x4->table, std::get<ClearTableReq>(b).table);
    } else if (const auto* x5 = std::get_if<WriteRegisterReq>(&a)) {
        const auto& y = std::get<WriteRegisterReq>(b);
        EXPECT_EQ(x5->name, y.name);
        EXPECT_EQ(x5->index, y.index);
        EXPECT_EQ(x5->value, y.value);
    } else if (const auto* x6 = std::get_if<ReadRegisterReq>(&a)) {
        const auto& y = std::get<ReadRegisterReq>(b);
        EXPECT_EQ(x6->name, y.name);
        EXPECT_EQ(x6->index, y.index);
    } else if (const auto* x7 = std::get_if<ReadCounterReq>(&a)) {
        const auto& y = std::get<ReadCounterReq>(b);
        EXPECT_EQ(x7->name, y.name);
        EXPECT_EQ(x7->index, y.index);
    } else if (const auto* x8 = std::get_if<ConfigureMeterReq>(&a)) {
        const auto& y = std::get<ConfigureMeterReq>(b);
        EXPECT_EQ(x8->name, y.name);
        EXPECT_EQ(x8->index, y.index);
        EXPECT_EQ(x8->config.committed_rate_bps, y.config.committed_rate_bps);
        EXPECT_EQ(x8->config.committed_burst, y.config.committed_burst);
        EXPECT_EQ(x8->config.excess_rate_bps, y.config.excess_rate_bps);
        EXPECT_EQ(x8->config.excess_burst, y.config.excess_burst);
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
    void send(std::span<const std::uint8_t> bytes) override {
        wire::Frame request;
        if (!wire::decode_frame(bytes, request)) return;
        Response r;
        r.payload = Response::Payload::counter_value;
        r.counter_value = {5, 5};
        wire::Frame reply;
        reply.kind = wire::FrameKind::control_response;
        reply.seq = request.seq;
        reply.payload = wire::encode_response(r);
        const std::vector<std::uint8_t> frame = wire::encode_frame(reply);
        pending_.insert(pending_.end(), frame.begin(), frame.end());
    }
    bool receive(std::vector<std::uint8_t>& out) override {
        if (pending_.empty()) return false;
        out.insert(out.end(), pending_.begin(), pending_.end());
        pending_.clear();
        return true;
    }
    void tick() override {}

private:
    std::vector<std::uint8_t> pending_;
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
