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

bool Reader::unknown(const char* what, unsigned value) {
    return fail(util::format("unknown %s %u", what, value));
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

bool Reader::i64(std::int64_t& out) {
    std::uint64_t v = 0;
    if (!u64(v)) return false;
    out = static_cast<std::int64_t>(v);
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

bool Reader::flag(bool& out) {
    std::uint8_t raw = 0;
    if (!u8(raw)) return false;
    if (raw > 1) return fail(util::format("flag byte %u is neither 0 nor 1", raw));
    out = raw == 1;
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

bool Reader::section(std::size_t want, const char* what) {
    std::uint32_t n = 0;
    if (!u32(n)) return false;
    if (n != want) {
        return fail(util::format("%s count %u, this build has %zu", what, n, want));
    }
    return true;
}

Decode Reader::finish(const char* what) const {
    if (!ok()) {
        return Decode::bad(util::format("malformed %s: %s", what, error_.c_str()));
    }
    if (pos_ != bytes_.size()) {
        return Decode::bad(util::format("trailing %zu byte(s) after the %s",
                                        bytes_.size() - pos_, what));
    }
    return Decode::good();
}

// --- message field lists ------------------------------------------------------
//
// One function per message, fields in wire order (see "payload primitives"
// in wire.h).

namespace {

template <class IO>
void bitvecs(IO& io, Fields<IO, std::vector<util::Bitvec>>& values) {
    io.seq(values, [&](auto& v) { io.bitvec(v); });
}

template <class IO>
void fields(IO& io, Fields<IO, EntrySpec>& e) {
    bitvecs(io, e.key_values);
    bitvecs(io, e.key_masks);
    io.i32(e.prefix_len);
    io.i32(e.priority);
    io.str(e.action);
    bitvecs(io, e.action_args);
}

template <class IO>
void fields(IO& io, Fields<IO, MeterConfig>& m) {
    io.f64(m.committed_rate_bps);
    io.u64(m.committed_burst);
    io.f64(m.excess_rate_bps);
    io.u64(m.excess_burst);
}

template <class IO>
void fields(IO& io, Fields<IO, ConfigOp>& op) {
    io.tag(op.kind, ConfigOp::Kind::configure_meter, "config op kind");
    io.str(op.target);
    switch (op.kind) {
        case ConfigOp::Kind::add_entry:
            fields(io, op.entry);
            break;
        case ConfigOp::Kind::set_default_action:
            io.str(op.action);
            bitvecs(io, op.action_args);
            break;
        case ConfigOp::Kind::write_register:
            io.u64(op.index);
            io.bitvec(op.value);
            break;
        case ConfigOp::Kind::configure_meter:
            io.u64(op.index);
            fields(io, op.meter);
            break;
    }
}

// The tag is the variant index.
template <class IO>
void fields(IO& io, Fields<IO, Request>& request) {
    io.variant(request, "request tag", [&](auto& req) {
        using T = std::remove_cvref_t<decltype(req)>;
        if constexpr (std::is_same_v<T, ReadRegisterReq> ||
                      std::is_same_v<T, ReadCounterReq>) {
            io.str(req.name);
            io.u64(req.index);
        } else if constexpr (std::is_same_v<T, ApplyConfigReq>) {
            io.seq(req.ops, [&](auto& op) { fields(io, op); });
        }
        // SnapshotReq / ResetReq carry no fields beyond the tag.
    });
}

template <class IO>
void fields(IO& io, Fields<IO, Status>& st) {
    io.flag(st.ok);
    io.str(st.message);
}

template <class IO>
void fields(IO& io, Fields<IO, StatusSnapshot>& s) {
    io.u64(s.taken_at_ns);
    io.u64(s.stages.parser_in);
    io.u64(s.stages.parser_accepted);
    io.u64(s.stages.parser_rejected);
    io.u64(s.stages.parser_errors);
    io.u64(s.stages.ingress_dropped);
    io.u64(s.stages.egress_dropped);
    io.u64(s.stages.forwarded);
    io.u64(s.misdirected);
    io.seq(s.ports, [&](auto& p) {
        io.u64(p.rx_packets);
        io.u64(p.rx_bytes);
        io.u64(p.tx_packets);
        io.u64(p.tx_bytes);
    });
    io.seq(s.tables, [&](auto& t) {
        io.str(t.name);
        io.u64(t.hits);
        io.u64(t.misses);
        io.u64(t.entries);
        io.u64(t.capacity);
    });
    io.seq(s.externs, [&](auto& e) {
        io.str(e.name);
        io.str(e.kind);
        io.u64(e.cells);
        io.u64(e.state_hash);
        io.u64(e.unconfigured_meters);
    });
}

template <class IO>
void fields(IO& io, Fields<IO, Response>& r) {
    io.tag(r.payload, Response::Payload::op_statuses, "response payload kind");
    fields(io, r.status);
    switch (r.payload) {
        case Response::Payload::none: break;
        case Response::Payload::register_value:
            io.bitvec(r.register_value);
            break;
        case Response::Payload::counter_value:
            io.u64(r.counter_value.packets);
            io.u64(r.counter_value.bytes);
            break;
        case Response::Payload::snapshot:
            fields(io, r.snapshot);
            break;
        case Response::Payload::op_statuses:
            io.seq(r.op_statuses, [&](auto& st) { fields(io, st); });
            break;
    }
}

template <class IO>
void fields(IO& io, Fields<IO, obs::TelemetryDelta>& d) {
    io.u64(d.pid);
    io.section(obs::kNumCounters, "counter");
    for (auto& c : d.metrics.counters) io.u64(c);
    io.section(obs::kNumGauges, "gauge");
    for (auto& g : d.metrics.gauges) io.i64(g);
    io.section(obs::kNumHists, "histogram");
    io.section(obs::kHistBuckets, "histogram bucket");
    for (auto& h : d.metrics.hists) {
        for (auto& b : h.buckets) io.u64(b);
    }
    io.seq(
        d.events,
        [&](auto& ev) {
            io.str(ev.name);
            io.str(ev.arg0);
            io.str(ev.arg1);
            io.u64(ev.ts_ns);
            io.u64(ev.dur_ns);
            io.u64(ev.v0);
            io.u64(ev.v1);
            io.u32(ev.tid);
        },
        kMaxTelemetryEvents);
}

}  // namespace

// --- request/response payload codec -------------------------------------------

std::vector<std::uint8_t> encode_request(const Request& request) {
    Writer w;
    fields(w, request);
    return w.take();
}

Decode decode_request(std::span<const std::uint8_t> payload, Request& out) {
    Reader r(payload);
    fields(r, out);
    return r.finish("request");
}

std::vector<std::uint8_t> encode_response(const Response& response) {
    Writer w;
    fields(w, response);
    return w.take();
}

Decode decode_response(std::span<const std::uint8_t> payload, Response& out) {
    out = Response{};  // the fields other payload kinds carry stay default
    Reader r(payload);
    fields(r, out);
    return r.finish("response");
}

// --- telemetry delta payload codec --------------------------------------------

std::vector<std::uint8_t> encode_telemetry_delta(const obs::TelemetryDelta& delta) {
    Writer w;
    fields(w, delta);
    return w.take();
}

Decode decode_telemetry_delta(std::span<const std::uint8_t> payload,
                              obs::TelemetryDelta& out) {
    Reader r(payload);
    fields(r, out);
    for (obs::TraceEventRecord& ev : out.events) ev.pid = out.pid;
    return r.finish("telemetry delta");
}

}  // namespace ndb::control::wire
