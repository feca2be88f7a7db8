// Wire-protocol frame codec for the management plane.
//
// Serializes control::Request/Response (and the campaign fabric's job
// traffic and telemetry deltas) into length-prefixed, versioned,
// checksummed binary frames, so the paper's "dedicated management
// interface" is a real byte protocol that can cross a process boundary --
// and, just as importantly, one that a fault injector can drop, truncate,
// corrupt and reorder.  Each payload's layout is spelled once, as one field
// list per message that both the Writer and the strict Reader run (see
// "payload primitives" below), so an encoder and its decoder cannot drift
// apart.  Decoding is strict and diagnostic-rich: every malformed input is
// rejected with a human-readable reason, never a crash or a silently-wrong
// value (the same hardening recipe the corpus recipe parsers follow).
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//        0     4  magic      0x4244'4e57 ("WNDB")
//        4     1  version    kVersion
//        5     1  kind       FrameKind
//        6     8  seq        request/response correlation number
//       14     4  len        payload byte count, <= kMaxPayloadBytes
//       18     8  checksum   FNV-1a over bytes [0, 18) plus the payload
//       26   len  payload
//
// The checksum covers the header fields, so a frame whose length field was
// bit-flipped in flight cannot trick the receiver into mis-framing the
// stream: FrameReader rejects it and resynchronizes on the next magic.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "control/channel.h"
#include "obs/telemetry.h"

namespace ndb::control::wire {

inline constexpr std::uint32_t kMagic = 0x4244'4e57u;  // "WNDB" on the wire
inline constexpr std::uint8_t kVersion = 2;
inline constexpr std::size_t kHeaderBytes = 26;
inline constexpr std::size_t kMaxPayloadBytes = 1u << 20;

// Inner-payload hard limits: a decoder must never let a hostile length
// field drive an allocation it cannot afford.
inline constexpr std::size_t kMaxStringBytes = 1u << 16;
inline constexpr std::size_t kMaxSequenceItems = 4096;
inline constexpr int kMaxBitvecBits = 1 << 20;

enum class FrameKind : std::uint8_t {
    control_request = 1,   // payload: encoded Request
    control_response = 2,  // payload: encoded Response
    job = 3,               // fabric: shard dispatch (parent -> worker)
    job_result = 4,        // fabric: shard outcomes (worker -> parent)
    heartbeat = 5,         // fabric: liveness probe (parent -> worker)
    heartbeat_ack = 6,     // fabric: liveness answer (worker -> parent)
    shutdown = 7,          // fabric: orderly worker exit
};
const char* frame_kind_name(FrameKind kind);

struct Frame {
    FrameKind kind = FrameKind::control_request;
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> payload;
};

// Outcome of a strict decode: ok(), or a reason a human can act on.
struct Decode {
    bool ok = true;
    std::string reason;

    static Decode good() { return {}; }
    static Decode bad(std::string why) { return {false, std::move(why)}; }
    explicit operator bool() const { return ok; }
};

// --- frame codec --------------------------------------------------------------

std::vector<std::uint8_t> encode_frame(const Frame& frame);

// Decodes exactly one frame occupying the whole buffer; trailing bytes are
// an error (stream consumers use FrameReader instead).
Decode decode_frame(std::span<const std::uint8_t> bytes, Frame& out);

// Incremental frame extraction from an untrusted byte stream.  Bytes that
// do not validate -- garbage between frames, frames with a bad version or
// checksum, truncated tails of corrupted frames -- are skipped by scanning
// forward to the next magic, so one mangled frame never poisons the rest
// of the stream.
class FrameReader {
public:
    struct Stats {
        std::uint64_t frames = 0;           // well-formed frames extracted
        std::uint64_t corrupt_frames = 0;   // headers/checksums rejected
        std::uint64_t bytes_skipped = 0;    // garbage bytes discarded
        std::string last_error;             // most recent rejection reason
    };

    void feed(std::span<const std::uint8_t> bytes);

    // Extracts the next well-formed frame; false when the buffered bytes
    // hold no complete frame (feed more and try again).
    bool next(Frame& out);

    const Stats& stats() const { return stats_; }

private:
    std::vector<std::uint8_t> buffer_;
    std::size_t pos_ = 0;
    Stats stats_;
};

// --- payload primitives -------------------------------------------------------
//
// Every payload has one field list: a function template over `IO` that
// names the message's fields in wire order, for example
//
//     template <class IO>
//     void fields(IO& io, Fields<IO, MeterConfig>& m) {
//         io.f64(m.committed_rate_bps);
//         io.u64(m.committed_burst);
//         ...
//     }
//
// Instantiated with Writer it serializes the message; with Reader it parses
// it back, so the two directions cannot drift apart.  Writer and Reader
// share every method name, and the Reader's shapes carry the checks: a flag
// must be 0 or 1, a tag must not pass its enum's last value, a sequence
// count is capped and its vector grows one decoded element at a time (a
// hostile count never sizes an allocation), and a section count fixed by
// the build must equal this build's.

// Little-endian serializer.  The arguments that only the Reader checks
// (a tag's last value, a sequence cap, a name for the error) are ignored.
class Writer {
public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v);  // IEEE-754 bit pattern
    void str(std::string_view s);
    void bitvec(const util::Bitvec& v);

    void flag(bool v) { u8(v ? 1 : 0); }
    template <class E>
    void tag(E v, E /*last*/, const char* /*what*/) {
        u8(static_cast<std::uint8_t>(v));
    }
    template <class... Ts, class Fn>
    void variant(const std::variant<Ts...>& v, const char* /*what*/, Fn&& alternative) {
        u8(static_cast<std::uint8_t>(v.index()));
        std::visit(alternative, v);
    }
    template <class T, class Fn>
    void seq(const std::vector<T>& items, Fn&& item,
             std::size_t /*cap*/ = kMaxSequenceItems) {
        u32(static_cast<std::uint32_t>(items.size()));
        for (const T& x : items) item(x);
    }
    void section(std::size_t count, const char* /*what*/) {
        u32(static_cast<std::uint32_t>(count));
    }

    std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
    std::vector<std::uint8_t> buf_;
};

// Strict cursor over an untrusted payload.  Every getter returns false and
// records a reason once the input is exhausted or malformed; the first
// failure sticks and turns every later read into a no-op, so a field list
// reads on and the caller checks once, through finish().
class Reader {
public:
    explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

    bool u8(std::uint8_t& out);
    bool u32(std::uint32_t& out);
    bool u64(std::uint64_t& out);
    bool i32(std::int32_t& out);
    bool i64(std::int64_t& out);
    bool f64(double& out);
    bool str(std::string& out);
    bool bitvec(util::Bitvec& out);

    // A byte that must be 0 or 1.
    bool flag(bool& out);
    // An enum byte that must not exceed `last`; `what` names it in the error.
    template <class E>
    bool tag(E& out, E last, const char* what) {
        std::uint8_t raw = 0;
        if (!u8(raw)) return false;
        if (raw > static_cast<unsigned>(last)) return unknown(what, raw);
        out = static_cast<E>(raw);
        return true;
    }
    // An alternative index that must name one of `v`'s alternatives, which
    // becomes `v`'s value and is filled in by `alternative`.
    template <class... Ts, class Fn>
    bool variant(std::variant<Ts...>& v, const char* what, Fn&& alternative) {
        std::uint8_t index = 0;
        if (!u8(index)) return false;
        if (index >= sizeof...(Ts)) return unknown(what, index);
        emplace_alternative(v, index, std::index_sequence_for<Ts...>{});
        std::visit(alternative, v);
        return ok();
    }
    // A count of at most `cap`, then that many elements, each appended
    // before `item` fills it in.
    template <class T, class Fn>
    bool seq(std::vector<T>& out, Fn&& item, std::size_t cap = kMaxSequenceItems) {
        out.clear();
        std::uint32_t n = 0;
        if (!count(n, cap)) return false;
        for (std::uint32_t i = 0; i < n && ok(); ++i) item(out.emplace_back());
        return ok();
    }
    // A count fixed by the build: it must equal `want`.
    bool section(std::size_t want, const char* what);

    // The verdict on a whole `what` payload: the first error, or bytes left
    // over after the field list.
    Decode finish(const char* what) const;

    bool ok() const { return error_.empty(); }
    const std::string& error() const { return error_; }

private:
    bool need(std::size_t n, const char* what);
    bool fail(std::string reason);
    bool unknown(const char* what, unsigned value);
    bool count(std::uint32_t& out, std::size_t cap);

    template <class V, std::size_t... I>
    static void emplace_alternative(V& v, std::size_t index, std::index_sequence<I...>) {
        ((index == I ? void(v.template emplace<I>()) : void()), ...);
    }

    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
    std::string error_;
};

// A field list's view of its message: const under a Writer, which only reads
// it; mutable under a Reader, which fills it in.
template <class IO, class T>
using Fields = std::conditional_t<std::is_same_v<IO, Writer>, const T, T>;

// --- request/response payload codec -------------------------------------------

std::vector<std::uint8_t> encode_request(const Request& request);
Decode decode_request(std::span<const std::uint8_t> payload, Request& out);

std::vector<std::uint8_t> encode_response(const Response& response);
Decode decode_response(std::span<const std::uint8_t> payload, Response& out);

// --- telemetry delta payload codec --------------------------------------------

// A fabric worker ships its obs::TelemetryDelta as a heartbeat ack's
// payload.  The decoder is strict like the request codec: the counter,
// gauge, histogram and bucket counts must equal this build's, at most
// kMaxTelemetryEvents events may follow (a drain empties one ring per
// recording thread), and every event is stamped with the shipping pid.
inline constexpr std::size_t kMaxTelemetryEvents = 1u << 16;
static_assert(kMaxTelemetryEvents >= obs::kTraceRingCapacity,
              "a delta must hold at least one full trace ring");

std::vector<std::uint8_t> encode_telemetry_delta(const obs::TelemetryDelta& delta);
Decode decode_telemetry_delta(std::span<const std::uint8_t> payload,
                              obs::TelemetryDelta& out);

}  // namespace ndb::control::wire
