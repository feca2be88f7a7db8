// Per-packet execution state flowing through the pipeline stages.
//
// Parsed headers are kept as wire bytes.  One buffer holds every header
// instance's wire image (network bit order: bit 0 is the MSB of byte 0) at
// a word-aligned offset; the bits between a header's last field and the
// next word boundary are always zero, and one zero word trails the last
// header so 8-byte field accesses never leave the buffer.  The layout is
// the program's own (p4::ir::StateLayout, built once per image by the
// compiler), and only this file, state.cpp and the stage digest
// (hash_packet_state, a friend) read it: everything else reads and writes
// fields through get()/set(), moves whole headers in and out with
// extract_header()/emit_header(), and sees the raw image only as the
// header bytes a checksum sums.
//
// get()/set() of fields up to 64 bits wide -- every field of the catalogue
// programs -- are defined here, so the per-packet path inlines the bounds
// check, the width check and one shift/mask over an 8-byte load or store.
// Wider fields take the word-at-a-time code in state.cpp.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "p4/ir.h"
#include "packet/packet.h"
#include "util/bitvec.h"

namespace ndb::dataplane {

enum class ParserVerdict : std::uint8_t {
    accept,
    reject,            // explicit transition to reject
    error_truncated,   // extract past the end of the packet
    error_loop,        // state-machine cycle guard tripped
};

const char* parser_verdict_name(ParserVerdict verdict);

struct PacketState;

// The stage digest of dataplane/digest.h.
std::uint64_t hash_packet_state(const PacketState& state);

// The parsed representation plus metadata; one per packet in flight.
struct PacketState {
    std::vector<std::uint8_t> payload;     // bytes beyond the parsed headers
    packet::PacketMeta meta;
    ParserVerdict parser_verdict = ParserVerdict::accept;
    std::uint64_t cycles = 0;  // accumulated processing cost
    bool exited = false;       // an `exit` statement fired

    // Builds the initial state for `prog`: every header image zeroed,
    // metadata headers valid, standard metadata populated from `meta`.
    // `clobber_meta` simulates targets that do not zero user metadata.
    static PacketState initial(const p4::ir::Program& prog,
                               const packet::PacketMeta& meta,
                               std::uint32_t packet_len,
                               bool clobber_meta = false);

    // Re-initializes the state in place, equivalent to initial() but
    // reusing every allocation: the pipeline's per-packet scratch path.
    // When `prog`'s layout is not the one the state holds, the state takes
    // it and resizes its buffers, which keep their capacity; ingress_port,
    // packet_length and timestamp are written straight into their slots.
    // Throws std::invalid_argument when `prog` has no layout (it was never
    // finalized).
    void reset(const p4::ir::Program& prog, const packet::PacketMeta& m,
               std::uint32_t packet_len, bool clobber_meta = false);

    // Field access by value.  Fields of <= 64 bits are one shift/mask over
    // an 8-byte load and never allocate.  Throws std::out_of_range on a bad
    // reference; set() throws std::invalid_argument on a width mismatch.
    util::Bitvec get(p4::ir::FieldRef ref) const {
        const Layout::Field& f = field(ref);
        if (f.width <= 64) return util::Bitvec(f.width, read_bits(bytes(), f.bit, f.width));
        return get_wide(f);
    }
    void set(p4::ir::FieldRef ref, const util::Bitvec& value) {
        const Layout::Field& f = field(ref);
        if (f.width != value.width()) throw_width_mismatch();
        if (f.width <= 64) {
            write_bits(bytes(), f.bit, f.width, value.to_u64());
            return;
        }
        set_wide(f, value);
    }

    bool header_valid(int header) const {
        const std::size_t h = header_slot(header);
        return (valid_[h / 64] >> (h % 64)) & 1;
    }
    void set_header_valid(int header, bool valid);

    // Copies `header`'s wire image out of `bytes`, starting `bit_offset`
    // bits in, and marks the header valid: a memcpy when the offset is
    // byte-aligned.  Throws std::out_of_range past the end of `bytes`.
    void extract_header(int header, std::span<const std::uint8_t> bytes,
                        std::size_t bit_offset);

    // ORs `header`'s wire image into `out` starting `bit_offset` bits in.
    // The destination bits must be zero (the deparser's fresh buffer).
    void emit_header(int header, std::span<std::uint8_t> out,
                     std::size_t bit_offset) const;

    // `header`'s wire image: ceil(size_bits / 8) bytes, pad bits zero.
    std::span<const std::uint8_t> header_bytes(int header) const;

    // Reads egress_spec from standard metadata.
    std::uint64_t egress_spec(const p4::ir::Program& prog) const {
        return get(prog.f_egress_spec).to_u64();
    }
    bool drop_flagged(const p4::ir::Program& prog) const {
        return egress_spec(prog) == p4::ir::kDropPort;
    }

private:
    friend std::uint64_t hash_packet_state(const PacketState& state);

    using Layout = p4::ir::StateLayout;

    void shape(const p4::ir::Program& prog);
    // Bounds-checked header index; throws std::out_of_range.
    std::size_t header_slot(int header) const {
        const auto h = static_cast<std::size_t>(header);  // -1 wraps high
        if (!layout_ || h >= layout_->headers.size()) throw_bad_header();
        return h;
    }
    // Bounds-checked field slot; throws std::out_of_range.
    const Layout::Field& field(p4::ir::FieldRef ref) const {
        if (!layout_) throw_bad_header();
        const auto h = static_cast<std::size_t>(ref.header);  // -1 wraps high
        const auto f = static_cast<std::size_t>(ref.field);
        if (h >= layout_->headers.size() || f >= layout_->headers[h].field_count) {
            throw_bad_field();
        }
        return layout_->fields[layout_->headers[h].first_field + f];
    }
    [[noreturn]] static void throw_bad_header();
    [[noreturn]] static void throw_bad_field();
    [[noreturn]] static void throw_width_mismatch();

    // The > 64-bit halves of get() and set(), a word at a time.
    util::Bitvec get_wide(const Layout::Field& f) const;
    void set_wide(const Layout::Field& f, const util::Bitvec& value);

    // Big-endian 8-byte load/store: wire bit i of the window is value bit
    // 63-i.
    static std::uint64_t load_be64(const std::uint8_t* p) {
        std::uint64_t x;
        std::memcpy(&x, p, sizeof x);
        if constexpr (std::endian::native == std::endian::little) {
            x = __builtin_bswap64(x);
        }
        return x;
    }
    static void store_be64(std::uint8_t* p, std::uint64_t x) {
        if constexpr (std::endian::native == std::endian::little) {
            x = __builtin_bswap64(x);
        }
        std::memcpy(p, &x, sizeof x);
    }

    // Reads the `width` (1..64) bits starting at wire bit `bit`.  Touches
    // bytes [bit/8, bit/8 + 9) at most; the trailing zero word keeps that
    // in bounds.
    static std::uint64_t read_bits(const std::uint8_t* bytes, std::size_t bit,
                                   int width) {
        const std::uint8_t* p = bytes + bit / 8;
        const unsigned shift = bit % 8;
        std::uint64_t x = load_be64(p) << shift;
        if (shift + static_cast<unsigned>(width) > 64) x |= p[8] >> (8 - shift);
        return x >> (64 - width);
    }

    // Writes the low `width` (1..64) bits of `value` at wire bit `bit`,
    // leaving every other bit as it was.
    static void write_bits(std::uint8_t* bytes, std::size_t bit, int width,
                           std::uint64_t value) {
        std::uint8_t* p = bytes + bit / 8;
        const unsigned shift = bit % 8;
        const unsigned w = static_cast<unsigned>(width);
        const std::uint64_t x = load_be64(p);
        if (shift + w <= 64) {
            const unsigned low = 64 - shift - w;  // bits after the field
            const std::uint64_t mask = (~0ull >> (64 - w)) << low;
            store_be64(p, (x & ~mask) | ((value << low) & mask));
            return;
        }
        // The field runs into a ninth byte: its top 64 - shift bits end the
        // window, the remaining `spill` bits lead byte 8.
        const unsigned spill = shift + w - 64;  // 1..7
        const std::uint64_t mask = ~0ull >> shift;
        store_be64(p, (x & ~mask) | ((value >> spill) & mask));
        const auto byte_mask = static_cast<std::uint8_t>(0xff << (8 - spill));
        p[8] = static_cast<std::uint8_t>((p[8] & ~byte_mask) |
                                         ((value << (8 - spill)) & byte_mask));
    }

    std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(image_.data()); }
    const std::uint8_t* bytes() const {
        return reinterpret_cast<const std::uint8_t*>(image_.data());
    }

    // The layout of the program the state was last reset for, shared with
    // that image and with the state's copies (stage taps).
    std::shared_ptr<const Layout> layout_;
    std::vector<std::uint64_t> image_;  // every header's wire image
    std::vector<std::uint64_t> valid_;  // validity bitmap
};

}  // namespace ndb::dataplane
