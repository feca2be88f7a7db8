#include "dataplane/state.h"

#include <algorithm>
#include <stdexcept>

namespace ndb::dataplane {

namespace {

// Mask of the wire bits a header's last image byte holds (pad bits clear).
std::uint8_t last_byte_mask(std::size_t bits) {
    return bits % 8 == 0 ? 0xff : static_cast<std::uint8_t>(0xff << (8 - bits % 8));
}

}  // namespace

const char* parser_verdict_name(ParserVerdict verdict) {
    switch (verdict) {
        case ParserVerdict::accept: return "accept";
        case ParserVerdict::reject: return "reject";
        case ParserVerdict::error_truncated: return "error.PacketTooShort";
        case ParserVerdict::error_loop: return "error.ParserLoop";
    }
    return "?";
}

void PacketState::throw_bad_header() {
    throw std::out_of_range("PacketState: header index out of range");
}

void PacketState::throw_bad_field() {
    throw std::out_of_range("PacketState: field reference out of range");
}

void PacketState::throw_width_mismatch() {
    throw std::invalid_argument("PacketState::set: width mismatch");
}

PacketState PacketState::initial(const p4::ir::Program& prog,
                                 const packet::PacketMeta& meta,
                                 std::uint32_t packet_len, bool clobber_meta) {
    PacketState st;
    st.reset(prog, meta, packet_len, clobber_meta);
    return st;
}

void PacketState::shape(const p4::ir::Program& prog) {
    if (!prog.layout) {
        throw std::invalid_argument("PacketState: program '" + prog.name +
                                    "' has no state layout");
    }
    layout_ = prog.layout;
    image_.resize(layout_->clobber_image.size());
    valid_.resize(layout_->initial_valid.size());
}

void PacketState::reset(const p4::ir::Program& prog, const packet::PacketMeta& m,
                        std::uint32_t packet_len, bool clobber_meta) {
    if (layout_ != prog.layout || !layout_) shape(prog);
    meta = m;
    parser_verdict = ParserVerdict::accept;
    cycles = 0;
    exited = false;
    payload.clear();
    if (clobber_meta) {
        std::copy(layout_->clobber_image.begin(), layout_->clobber_image.end(),
                  image_.begin());
    } else {
        std::fill(image_.begin(), image_.end(), 0);
    }
    std::copy(layout_->initial_valid.begin(), layout_->initial_valid.end(),
              valid_.begin());
    const Layout& layout = *layout_;
    write_bits(bytes(), layout.ingress_port.bit, layout.ingress_port.width,
               m.ingress_port);
    write_bits(bytes(), layout.packet_length.bit, layout.packet_length.width,
               packet_len);
    write_bits(bytes(), layout.timestamp.bit, layout.timestamp.width,
               m.rx_time_ns / 1000);  // usec
}

util::Bitvec PacketState::get_wide(const Layout::Field& f) const {
    // Assemble the field a word at a time, least significant first.
    util::Bitvec v(f.width);
    for (int lo = 0; lo < f.width; lo += 64) {
        const int chunk = std::min(64, f.width - lo);
        const std::size_t at = f.bit + static_cast<std::size_t>(f.width - lo - chunk);
        v.set_slice(lo + chunk - 1, lo, util::Bitvec(chunk, read_bits(bytes(), at, chunk)));
    }
    return v;
}

void PacketState::set_wide(const Layout::Field& f, const util::Bitvec& value) {
    const auto words = value.word_span();
    for (int lo = 0; lo < f.width; lo += 64) {
        const int chunk = std::min(64, f.width - lo);
        const std::size_t at = f.bit + static_cast<std::size_t>(f.width - lo - chunk);
        write_bits(bytes(), at, chunk, words[static_cast<std::size_t>(lo / 64)]);
    }
}

void PacketState::set_header_valid(int header, bool valid) {
    const std::size_t h = header_slot(header);
    const std::uint64_t bit = 1ull << (h % 64);
    valid_[h / 64] = valid ? (valid_[h / 64] | bit) : (valid_[h / 64] & ~bit);
}

void PacketState::extract_header(int header, std::span<const std::uint8_t> bytes_in,
                                 std::size_t bit_offset) {
    const std::size_t slot = header_slot(header);
    const Layout::Header& h = layout_->headers[slot];
    if (bit_offset + h.bits > bytes_in.size() * 8) {
        throw std::out_of_range("PacketState::extract_header: past end of packet");
    }
    const std::size_t n = (h.bits + 7) / 8;
    std::uint8_t* dst = bytes() + h.word * 8;
    const std::uint8_t* src = bytes_in.data() + bit_offset / 8;
    const unsigned shift = bit_offset % 8;
    if (shift == 0) {
        std::memcpy(dst, src, n);
    } else {
        // Each image byte takes the low 8 - shift bits of one packet byte
        // and the high `shift` bits of the next; the packet may end inside
        // the last image byte's pad bits.
        const std::size_t avail = bytes_in.size() - bit_offset / 8;
        for (std::size_t i = 0; i < n; ++i) {
            const unsigned next = i + 1 < avail ? src[i + 1] : 0;
            dst[i] = static_cast<std::uint8_t>((src[i] << shift) | (next >> (8 - shift)));
        }
    }
    if (n > 0) dst[n - 1] &= last_byte_mask(h.bits);
    set_header_valid(header, true);
}

void PacketState::emit_header(int header, std::span<std::uint8_t> out,
                              std::size_t bit_offset) const {
    const std::size_t slot = header_slot(header);
    const Layout::Header& h = layout_->headers[slot];
    if (bit_offset + h.bits > out.size() * 8) {
        throw std::out_of_range("PacketState::emit_header: past end of buffer");
    }
    const std::size_t n = (h.bits + 7) / 8;
    const std::uint8_t* src = bytes() + h.word * 8;
    std::uint8_t* dst = out.data() + bit_offset / 8;
    const unsigned shift = bit_offset % 8;
    if (shift == 0) {
        std::memcpy(dst, src, n);
        return;
    }
    // Pad bits are zero, so spilling the last byte's low bits past the
    // header's end (or dropping them at the buffer's end) changes nothing.
    const std::size_t room = out.size() - bit_offset / 8;
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] |= static_cast<std::uint8_t>(src[i] >> shift);
        if (i + 1 < room) dst[i + 1] |= static_cast<std::uint8_t>(src[i] << (8 - shift));
    }
}

std::span<const std::uint8_t> PacketState::header_bytes(int header) const {
    const std::size_t slot = header_slot(header);
    const Layout::Header& h = layout_->headers[slot];
    return {bytes() + h.word * 8, (h.bits + 7) / 8};
}

}  // namespace ndb::dataplane
