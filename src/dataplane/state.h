// Per-packet execution state flowing through the pipeline stages.
//
// Parsed headers are kept as wire bytes.  One buffer holds every header
// instance's wire image (network bit order: bit 0 is the MSB of byte 0) at
// a word-aligned offset; the bits between a header's last field and the
// next word boundary are always zero, and one zero word trails the last
// header so 8-byte field accesses never leave the buffer.  The layout is
// built once per program and is private to this file and state.cpp:
// everything else reads and writes fields through get()/set(), moves whole
// headers in and out with extract_header()/emit_header(), and sees the raw
// image only as the header bytes a checksum sums and the padded words a
// digest folds.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "p4/ir.h"
#include "packet/packet.h"
#include "util/bitvec.h"

namespace ndb::dataplane {

enum class ParserVerdict {
    accept,
    reject,            // explicit transition to reject
    error_truncated,   // extract past the end of the packet
    error_loop,        // state-machine cycle guard tripped
};

const char* parser_verdict_name(ParserVerdict verdict);

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
    // The layout is (re)built only when `prog` is not the program object
    // the state was last shaped for.
    void reset(const p4::ir::Program& prog, const packet::PacketMeta& m,
               std::uint32_t packet_len, bool clobber_meta = false);

    // Field access by value.  Fields of <= 64 bits are one shift/mask over
    // an 8-byte load and never allocate.  Throws std::out_of_range on a bad
    // reference; set() throws std::invalid_argument on a width mismatch.
    util::Bitvec get(p4::ir::FieldRef ref) const;
    void set(p4::ir::FieldRef ref, const util::Bitvec& value);

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

    // The same image padded with zeros to whole 64-bit words (native
    // loads of the byte image), and the validity bitmap (header h is bit
    // h % 64 of word h / 64): what a stage digest folds.
    std::span<const std::uint64_t> header_words(int header) const {
        const std::size_t slot = header_slot(header);
        const Layout::Header& h = layout_->headers[slot];
        return std::span<const std::uint64_t>(image_).subspan(h.word, h.words);
    }
    std::span<const std::uint64_t> valid_words() const { return valid_; }

    // Reads egress_spec from standard metadata.
    std::uint64_t egress_spec(const p4::ir::Program& prog) const;
    bool drop_flagged(const p4::ir::Program& prog) const;

private:
    // Where each header and field lives in image_, plus the initial image
    // and validity a reset restores.
    struct Layout {
        struct Field {
            std::size_t bit = 0;  // wire bit offset into the whole buffer
            int width = 0;
        };
        struct Header {
            std::size_t word = 0;   // first word of the image
            std::size_t words = 0;  // padded length in words
            std::size_t bits = 0;   // size_bits: the wire length
            std::size_t first_field = 0;
            std::size_t field_count = 0;
        };
        std::vector<Header> headers;
        std::vector<Field> fields;
        std::vector<std::uint64_t> clobber_image;  // metadata_clobber's initial image
        std::vector<std::uint64_t> initial_valid;  // metadata headers set

        // Bounds-checked slot lookup; throws std::out_of_range.
        const Field& field(p4::ir::FieldRef ref) const {
            const auto h = static_cast<std::size_t>(ref.header);  // -1 wraps high
            const auto f = static_cast<std::size_t>(ref.field);
            if (h >= headers.size() || f >= headers[h].field_count) throw_bad_field();
            return fields[headers[h].first_field + f];
        }
    };

    void shape(const p4::ir::Program& prog);
    // Bounds-checked header index; throws std::out_of_range.
    std::size_t header_slot(int header) const {
        const auto h = static_cast<std::size_t>(header);  // -1 wraps high
        if (!layout_ || h >= layout_->headers.size()) throw_bad_header();
        return h;
    }
    [[noreturn]] static void throw_bad_header();
    [[noreturn]] static void throw_bad_field();
    std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(image_.data()); }
    const std::uint8_t* bytes() const {
        return reinterpret_cast<const std::uint8_t*>(image_.data());
    }

    // Built for the program `shaped_for_` (identity, not equivalence, so a
    // different Program object always gets its own layout); shared by the
    // state's copies (stage taps).
    std::shared_ptr<const Layout> layout_;
    const p4::ir::Program* shaped_for_ = nullptr;
    std::vector<std::uint64_t> image_;  // every header's wire image
    std::vector<std::uint64_t> valid_;  // validity bitmap
};

}  // namespace ndb::dataplane
