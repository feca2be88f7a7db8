#include "control/wire.h"

#include <cstring>

#include "util/strings.h"

namespace ndb::control::wire {

namespace {

// FNV-1a over raw bytes (util::fnv1a_64 is the string_view flavour; the
// constants are identical so the two can never disagree on common input).
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

bool valid_kind(std::uint8_t k) {
    return k >= static_cast<std::uint8_t>(FrameKind::control_request) &&
           k <= static_cast<std::uint8_t>(FrameKind::shutdown);
}

// Checksum input: header bytes [0, 18) then the payload.
std::uint64_t frame_checksum(std::span<const std::uint8_t> header18,
                             std::span<const std::uint8_t> payload) {
    return fnv1a(payload, fnv1a(header18));
}

// Validates the 26-byte header at `p` (with at least kHeaderBytes
// available).  On success fills kind/seq/len; on failure returns the reason.
Decode parse_header(const std::uint8_t* p, FrameKind& kind, std::uint64_t& seq,
                    std::uint32_t& len) {
    if (get_u32(p) != kMagic) {
        return Decode::bad(util::format("bad magic 0x%08x", get_u32(p)));
    }
    if (p[4] != kVersion) {
        return Decode::bad(util::format("unsupported version %u (speak %u)",
                                        p[4], kVersion));
    }
    if (!valid_kind(p[5])) {
        return Decode::bad(util::format("unknown frame kind %u", p[5]));
    }
    kind = static_cast<FrameKind>(p[5]);
    seq = get_u64(p + 6);
    len = get_u32(p + 14);
    if (len > kMaxPayloadBytes) {
        return Decode::bad(util::format("payload length %u exceeds the %zu-byte cap",
                                        len, kMaxPayloadBytes));
    }
    return Decode::good();
}

}  // namespace

const char* frame_kind_name(FrameKind kind) {
    switch (kind) {
        case FrameKind::control_request: return "control_request";
        case FrameKind::control_response: return "control_response";
        case FrameKind::job: return "job";
        case FrameKind::job_result: return "job_result";
        case FrameKind::heartbeat: return "heartbeat";
        case FrameKind::heartbeat_ack: return "heartbeat_ack";
        case FrameKind::shutdown: return "shutdown";
    }
    return "?";
}

// --- frame codec --------------------------------------------------------------

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
    std::vector<std::uint8_t> out;
    out.reserve(kHeaderBytes + frame.payload.size());
    put_u32(out, kMagic);
    out.push_back(kVersion);
    out.push_back(static_cast<std::uint8_t>(frame.kind));
    put_u64(out, frame.seq);
    put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
    const std::uint64_t sum =
        frame_checksum(std::span(out).first(18), frame.payload);
    put_u64(out, sum);
    out.insert(out.end(), frame.payload.begin(), frame.payload.end());
    return out;
}

Decode decode_frame(std::span<const std::uint8_t> bytes, Frame& out) {
    if (bytes.size() < kHeaderBytes) {
        return Decode::bad(util::format("frame needs at least %zu header bytes, got %zu",
                                        kHeaderBytes, bytes.size()));
    }
    FrameKind kind;
    std::uint64_t seq;
    std::uint32_t len;
    if (const Decode d = parse_header(bytes.data(), kind, seq, len); !d) return d;
    if (bytes.size() < kHeaderBytes + len) {
        return Decode::bad(util::format("frame truncated: header promises %u payload "
                                        "bytes, %zu present",
                                        len, bytes.size() - kHeaderBytes));
    }
    if (bytes.size() > kHeaderBytes + len) {
        return Decode::bad(util::format("trailing %zu byte(s) after the frame",
                                        bytes.size() - kHeaderBytes - len));
    }
    const auto payload = bytes.subspan(kHeaderBytes, len);
    const std::uint64_t want = get_u64(bytes.data() + 18);
    const std::uint64_t got = frame_checksum(bytes.first(18), payload);
    if (want != got) {
        return Decode::bad(util::format("checksum mismatch: frame says 0x%016llx, "
                                        "bytes hash to 0x%016llx",
                                        static_cast<unsigned long long>(want),
                                        static_cast<unsigned long long>(got)));
    }
    out.kind = kind;
    out.seq = seq;
    out.payload.assign(payload.begin(), payload.end());
    return Decode::good();
}

void FrameReader::feed(std::span<const std::uint8_t> bytes) {
    // Compact once the consumed prefix dominates, so a long-lived stream
    // does not grow without bound.
    if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

bool FrameReader::next(Frame& out) {
    for (;;) {
        // Scan forward to the next magic; everything before it is garbage.
        std::size_t start = pos_;
        bool synced = false;
        while (start + 4 <= buffer_.size()) {
            if (get_u32(buffer_.data() + start) == kMagic) {
                synced = true;
                break;
            }
            ++start;
        }
        if (start != pos_) {
            // Bytes we can prove are not a frame start.  (The <4 tail bytes
            // of an unsynced buffer stay pending: they may be a split magic.)
            const std::size_t limit = synced ? start : buffer_.size() - std::min<std::size_t>(3, buffer_.size());
            if (limit > pos_) {
                stats_.bytes_skipped += limit - pos_;
                ++stats_.resyncs;
                pos_ = limit;
            }
        }
        if (!synced || buffer_.size() - pos_ < kHeaderBytes) return false;

        const std::uint8_t* p = buffer_.data() + pos_;
        FrameKind kind;
        std::uint64_t seq;
        std::uint32_t len;
        if (const Decode d = parse_header(p, kind, seq, len); !d) {
            // Corrupt header: skip this magic and rescan (the real frame
            // may start inside what we thought was the header).
            ++stats_.corrupt_frames;
            stats_.last_error = d.reason;
            ++pos_;
            continue;
        }
        if (buffer_.size() - pos_ < kHeaderBytes + len) return false;  // partial
        const auto payload =
            std::span(buffer_).subspan(pos_ + kHeaderBytes, len);
        const std::uint64_t want = get_u64(p + 18);
        if (want != frame_checksum(std::span(p, 18), payload)) {
            ++stats_.corrupt_frames;
            stats_.last_error = "checksum mismatch";
            ++pos_;
            continue;
        }
        out.kind = kind;
        out.seq = seq;
        out.payload.assign(payload.begin(), payload.end());
        pos_ += kHeaderBytes + len;
        ++stats_.frames;
        return true;
    }
}

// --- payload primitives -------------------------------------------------------

void Writer::u32(std::uint32_t v) { put_u32(buf_, v); }
void Writer::u64(std::uint64_t v) { put_u64(buf_, v); }

void Writer::f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void Writer::str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::bitvec(const util::Bitvec& v) {
    i32(v.width());
    const std::size_t base = buf_.size();
    buf_.resize(base + (static_cast<std::size_t>(v.width()) + 7) / 8);
    v.write_bytes(std::span(buf_).subspan(base));
}

bool Reader::fail(std::string reason) {
    if (error_.empty()) error_ = std::move(reason);
    return false;
}

bool Reader::need(std::size_t n, const char* what) {
    if (!ok()) return false;
    if (bytes_.size() - pos_ < n) {
        return fail(util::format("truncated payload: %s needs %zu byte(s), %zu left",
                                 what, n, bytes_.size() - pos_));
    }
    return true;
}

bool Reader::u8(std::uint8_t& out) {
    if (!need(1, "u8")) return false;
    out = bytes_[pos_++];
    return true;
}

bool Reader::u32(std::uint32_t& out) {
    if (!need(4, "u32")) return false;
    out = get_u32(bytes_.data() + pos_);
    pos_ += 4;
    return true;
}

bool Reader::u64(std::uint64_t& out) {
    if (!need(8, "u64")) return false;
    out = get_u64(bytes_.data() + pos_);
    pos_ += 8;
    return true;
}

bool Reader::i32(std::int32_t& out) {
    std::uint32_t v;
    if (!u32(v)) return false;
    out = static_cast<std::int32_t>(v);
    return true;
}

bool Reader::f64(double& out) {
    std::uint64_t bits;
    if (!u64(bits)) return false;
    std::memcpy(&out, &bits, sizeof out);
    return true;
}

bool Reader::str(std::string& out) {
    std::uint32_t n;
    if (!u32(n)) return false;
    if (n > kMaxStringBytes) {
        return fail(util::format("string length %u exceeds the %zu-byte cap", n,
                                 kMaxStringBytes));
    }
    if (!need(n, "string body")) return false;
    out.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return true;
}

bool Reader::bitvec(util::Bitvec& out) {
    std::int32_t width;
    if (!i32(width)) return false;
    if (width < 0 || width > kMaxBitvecBits) {
        return fail(util::format("bitvec width %d outside [0, %d]", width,
                                 kMaxBitvecBits));
    }
    const std::size_t nbytes = (static_cast<std::size_t>(width) + 7) / 8;
    if (!need(nbytes, "bitvec body")) return false;
    const auto body = bytes_.subspan(pos_, nbytes);
    // Excess high-order bits of the leading byte must be zero, or
    // Bitvec::from_bytes would throw on what is attacker-controlled input.
    const int excess = static_cast<int>(nbytes * 8) - width;
    if (excess > 0 && (body[0] >> (8 - excess)) != 0) {
        return fail(util::format("bitvec value exceeds its %d-bit width", width));
    }
    out = util::Bitvec::from_bytes(body, width);
    pos_ += nbytes;
    return true;
}

bool Reader::count(std::uint32_t& out, std::size_t cap) {
    if (!u32(out)) return false;
    if (out > cap) {
        return fail(util::format("sequence count %u exceeds the %zu-item cap", out,
                                 cap));
    }
    return true;
}

// --- request/response payload codec -------------------------------------------

namespace {

void write_bitvec_seq(Writer& w, const std::vector<util::Bitvec>& seq) {
    w.u32(static_cast<std::uint32_t>(seq.size()));
    for (const auto& v : seq) w.bitvec(v);
}

bool read_bitvec_seq(Reader& r, std::vector<util::Bitvec>& out) {
    std::uint32_t n;
    if (!r.count(n)) return false;
    out.resize(n);
    for (auto& v : out) {
        if (!r.bitvec(v)) return false;
    }
    return true;
}

void write_entry(Writer& w, const EntrySpec& e) {
    write_bitvec_seq(w, e.key_values);
    write_bitvec_seq(w, e.key_masks);
    w.i32(e.prefix_len);
    w.i32(e.priority);
    w.str(e.action);
    write_bitvec_seq(w, e.action_args);
}

bool read_entry(Reader& r, EntrySpec& e) {
    return read_bitvec_seq(r, e.key_values) && read_bitvec_seq(r, e.key_masks) &&
           r.i32(e.prefix_len) && r.i32(e.priority) && r.str(e.action) &&
           read_bitvec_seq(r, e.action_args);
}

void write_meter(Writer& w, const MeterConfig& m) {
    w.f64(m.committed_rate_bps);
    w.u64(m.committed_burst);
    w.f64(m.excess_rate_bps);
    w.u64(m.excess_burst);
}

bool read_meter(Reader& r, MeterConfig& m) {
    return r.f64(m.committed_rate_bps) && r.u64(m.committed_burst) &&
           r.f64(m.excess_rate_bps) && r.u64(m.excess_burst);
}

void write_config_op(Writer& w, const ConfigOp& op) {
    w.u8(static_cast<std::uint8_t>(op.kind));
    w.str(op.target);
    switch (op.kind) {
        case ConfigOp::Kind::add_entry:
            write_entry(w, op.entry);
            break;
        case ConfigOp::Kind::set_default_action:
            w.str(op.action);
            write_bitvec_seq(w, op.action_args);
            break;
        case ConfigOp::Kind::write_register:
            w.u64(op.index);
            w.bitvec(op.value);
            break;
        case ConfigOp::Kind::configure_meter:
            w.u64(op.index);
            write_meter(w, op.meter);
            break;
    }
}

bool read_config_op(Reader& r, ConfigOp& op) {
    std::uint8_t kind;
    if (!(r.u8(kind) && r.str(op.target))) return false;
    if (kind > static_cast<std::uint8_t>(ConfigOp::Kind::configure_meter)) {
        return r.fail(util::format("unknown config op kind %u", kind));
    }
    op.kind = static_cast<ConfigOp::Kind>(kind);
    switch (op.kind) {
        case ConfigOp::Kind::add_entry:
            return read_entry(r, op.entry);
        case ConfigOp::Kind::set_default_action:
            return r.str(op.action) && read_bitvec_seq(r, op.action_args);
        case ConfigOp::Kind::write_register:
            return r.u64(op.index) && r.bitvec(op.value);
        case ConfigOp::Kind::configure_meter:
            return r.u64(op.index) && read_meter(r, op.meter);
    }
    return false;
}

void write_status_seq(Writer& w, const std::vector<Status>& statuses) {
    w.u32(static_cast<std::uint32_t>(statuses.size()));
    for (const Status& st : statuses) {
        w.u8(st.ok ? 1 : 0);
        w.str(st.message);
    }
}

bool read_status_seq(Reader& r, std::vector<Status>& statuses) {
    std::uint32_t n;
    if (!r.count(n)) return false;
    statuses.resize(n);
    for (Status& st : statuses) {
        std::uint8_t ok_flag;
        if (!(r.u8(ok_flag) && r.str(st.message))) return false;
        if (ok_flag > 1) return r.fail("status flag is neither 0 nor 1");
        st.ok = ok_flag == 1;
    }
    return true;
}

void write_snapshot(Writer& w, const StatusSnapshot& s) {
    w.u64(s.taken_at_ns);
    w.u64(s.stages.parser_in);
    w.u64(s.stages.parser_accepted);
    w.u64(s.stages.parser_rejected);
    w.u64(s.stages.parser_errors);
    w.u64(s.stages.ingress_dropped);
    w.u64(s.stages.egress_dropped);
    w.u64(s.stages.forwarded);
    w.u64(s.misdirected);
    w.u32(static_cast<std::uint32_t>(s.ports.size()));
    for (const auto& p : s.ports) {
        w.u64(p.rx_packets);
        w.u64(p.rx_bytes);
        w.u64(p.tx_packets);
        w.u64(p.tx_bytes);
    }
    w.u32(static_cast<std::uint32_t>(s.tables.size()));
    for (const auto& t : s.tables) {
        w.str(t.name);
        w.u64(t.hits);
        w.u64(t.misses);
        w.u64(t.entries);
        w.u64(t.capacity);
    }
    w.u32(static_cast<std::uint32_t>(s.externs.size()));
    for (const auto& e : s.externs) {
        w.str(e.name);
        w.str(e.kind);
        w.u64(e.cells);
        w.u64(e.state_hash);
        w.u64(e.unconfigured_meters);
    }
}

bool read_snapshot(Reader& r, StatusSnapshot& s) {
    std::uint32_t n;
    if (!(r.u64(s.taken_at_ns) && r.u64(s.stages.parser_in) &&
          r.u64(s.stages.parser_accepted) && r.u64(s.stages.parser_rejected) &&
          r.u64(s.stages.parser_errors) && r.u64(s.stages.ingress_dropped) &&
          r.u64(s.stages.egress_dropped) && r.u64(s.stages.forwarded) &&
          r.u64(s.misdirected) && r.count(n))) {
        return false;
    }
    s.ports.resize(n);
    for (auto& p : s.ports) {
        if (!(r.u64(p.rx_packets) && r.u64(p.rx_bytes) && r.u64(p.tx_packets) &&
              r.u64(p.tx_bytes))) {
            return false;
        }
    }
    if (!r.count(n)) return false;
    s.tables.resize(n);
    for (auto& t : s.tables) {
        if (!(r.str(t.name) && r.u64(t.hits) && r.u64(t.misses) &&
              r.u64(t.entries) && r.u64(t.capacity))) {
            return false;
        }
    }
    if (!r.count(n)) return false;
    s.externs.resize(n);
    for (auto& e : s.externs) {
        if (!(r.str(e.name) && r.str(e.kind) && r.u64(e.cells) &&
              r.u64(e.state_hash) && r.u64(e.unconfigured_meters))) {
            return false;
        }
    }
    return true;
}

}  // namespace

std::vector<std::uint8_t> encode_request(const Request& request) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(request.index()));
    std::visit(
        [&](const auto& req) {
            using T = std::decay_t<decltype(req)>;
            if constexpr (std::is_same_v<T, ReadRegisterReq> ||
                          std::is_same_v<T, ReadCounterReq>) {
                w.str(req.name);
                w.u64(req.index);
            } else if constexpr (std::is_same_v<T, ApplyConfigReq>) {
                w.u32(static_cast<std::uint32_t>(req.ops.size()));
                for (const ConfigOp& op : req.ops) write_config_op(w, op);
            }
            // SnapshotReq / ResetReq carry no fields beyond the tag.
        },
        request);
    return w.take();
}

Decode decode_request(std::span<const std::uint8_t> payload, Request& out) {
    Reader r(payload);
    std::uint8_t tag;
    if (!r.u8(tag)) return Decode::bad("request payload is empty: " + r.error());
    bool ok = true;
    switch (tag) {
        case 0: {
            ReadRegisterReq req;
            ok = r.str(req.name) && r.u64(req.index);
            out = std::move(req);
            break;
        }
        case 1: {
            ReadCounterReq req;
            ok = r.str(req.name) && r.u64(req.index);
            out = std::move(req);
            break;
        }
        case 2: out = SnapshotReq{}; break;
        case 3: out = ResetReq{}; break;
        case 4: {
            ApplyConfigReq req;
            std::uint32_t n = 0;
            ok = r.count(n);
            if (ok) {
                req.ops.resize(n);
                for (ConfigOp& op : req.ops) {
                    if (!read_config_op(r, op)) {
                        ok = false;
                        break;
                    }
                }
            }
            out = std::move(req);
            break;
        }
        default:
            return Decode::bad(util::format("unknown request tag %u", tag));
    }
    if (!ok) return Decode::bad("malformed request: " + r.error());
    if (!r.done()) {
        return Decode::bad(util::format("trailing %zu byte(s) after the request",
                                        r.remaining()));
    }
    return Decode::good();
}

std::vector<std::uint8_t> encode_response(const Response& response) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(response.payload));
    w.u8(response.status.ok ? 1 : 0);
    w.str(response.status.message);
    switch (response.payload) {
        case Response::Payload::none: break;
        case Response::Payload::register_value:
            w.bitvec(response.register_value);
            break;
        case Response::Payload::counter_value:
            w.u64(response.counter_value.packets);
            w.u64(response.counter_value.bytes);
            break;
        case Response::Payload::snapshot:
            write_snapshot(w, response.snapshot);
            break;
        case Response::Payload::op_statuses:
            write_status_seq(w, response.op_statuses);
            break;
    }
    return w.take();
}

Decode decode_response(std::span<const std::uint8_t> payload, Response& out) {
    Reader r(payload);
    std::uint8_t kind, ok_flag;
    if (!r.u8(kind)) return Decode::bad("response payload is empty: " + r.error());
    if (kind > static_cast<std::uint8_t>(Response::Payload::op_statuses)) {
        return Decode::bad(util::format("unknown response payload kind %u", kind));
    }
    out = Response{};
    out.payload = static_cast<Response::Payload>(kind);
    bool ok = r.u8(ok_flag) && r.str(out.status.message);
    if (ok && ok_flag > 1) return Decode::bad("status flag is neither 0 nor 1");
    out.status.ok = ok_flag == 1;
    if (ok) {
        switch (out.payload) {
            case Response::Payload::none: break;
            case Response::Payload::register_value:
                ok = r.bitvec(out.register_value);
                break;
            case Response::Payload::counter_value:
                ok = r.u64(out.counter_value.packets) &&
                     r.u64(out.counter_value.bytes);
                break;
            case Response::Payload::snapshot:
                ok = read_snapshot(r, out.snapshot);
                break;
            case Response::Payload::op_statuses:
                ok = read_status_seq(r, out.op_statuses);
                break;
        }
    }
    if (!ok) return Decode::bad("malformed response: " + r.error());
    if (!r.done()) {
        return Decode::bad(util::format("trailing %zu byte(s) after the response",
                                        r.remaining()));
    }
    return Decode::good();
}

// --- telemetry delta payload codec --------------------------------------------

std::vector<std::uint8_t> encode_telemetry_delta(const obs::TelemetryDelta& delta) {
    Writer w;
    w.u64(delta.pid);
    w.u32(static_cast<std::uint32_t>(obs::kNumCounters));
    for (const std::uint64_t c : delta.metrics.counters) w.u64(c);
    w.u32(static_cast<std::uint32_t>(obs::kNumGauges));
    for (const std::int64_t g : delta.metrics.gauges) {
        w.u64(static_cast<std::uint64_t>(g));
    }
    w.u32(static_cast<std::uint32_t>(obs::kNumHists));
    w.u32(static_cast<std::uint32_t>(obs::kHistBuckets));
    for (const obs::HistogramData& h : delta.metrics.hists) {
        for (const std::uint64_t b : h.buckets) w.u64(b);
    }
    w.u32(static_cast<std::uint32_t>(delta.events.size()));
    for (const obs::TraceEventRecord& ev : delta.events) {
        w.str(ev.name);
        w.str(ev.arg0);
        w.str(ev.arg1);
        w.u64(ev.ts_ns);
        w.u64(ev.dur_ns);
        w.u64(ev.v0);
        w.u64(ev.v1);
        w.u32(ev.tid);
    }
    return w.take();
}

Decode decode_telemetry_delta(std::span<const std::uint8_t> payload,
                              obs::TelemetryDelta& out) {
    Reader r(payload);
    // Reads a section's element count; it must equal this build's.
    const auto expect = [&r](std::size_t want, const char* what) {
        std::uint32_t n = 0;
        if (r.u32(n) && n != want) {
            r.fail(util::format("%s count %u, this build has %zu", what, n, want));
        }
    };
    out = obs::TelemetryDelta{};
    r.u64(out.pid);
    expect(obs::kNumCounters, "counter");
    for (std::uint64_t& c : out.metrics.counters) r.u64(c);
    expect(obs::kNumGauges, "gauge");
    for (std::int64_t& g : out.metrics.gauges) {
        std::uint64_t raw = 0;
        r.u64(raw);
        g = static_cast<std::int64_t>(raw);
    }
    expect(obs::kNumHists, "histogram");
    expect(obs::kHistBuckets, "histogram bucket");
    for (obs::HistogramData& h : out.metrics.hists) {
        for (std::uint64_t& b : h.buckets) r.u64(b);
    }
    std::uint32_t events = 0;
    r.count(events, kMaxTelemetryEvents);
    // Grown per decoded event, so a hostile count allocates nothing.
    for (std::uint32_t i = 0; r.ok() && i < events; ++i) {
        obs::TraceEventRecord ev;
        if (r.str(ev.name) && r.str(ev.arg0) && r.str(ev.arg1) &&
            r.u64(ev.ts_ns) && r.u64(ev.dur_ns) && r.u64(ev.v0) &&
            r.u64(ev.v1) && r.u32(ev.tid)) {
            ev.pid = out.pid;
            out.events.push_back(std::move(ev));
        }
    }
    if (!r.ok()) return Decode::bad("malformed telemetry delta: " + r.error());
    if (!r.done()) {
        return Decode::bad(util::format(
            "trailing %zu byte(s) after the telemetry delta", r.remaining()));
    }
    return Decode::good();
}

}  // namespace ndb::control::wire
