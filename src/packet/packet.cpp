#include "packet/packet.h"

#include <stdexcept>

namespace ndb::packet {

util::Bitvec Packet::extract_bits(std::size_t bit_offset, int width) const {
    if (width < 0) throw std::invalid_argument("extract_bits: negative width");
    const std::size_t end = bit_offset + static_cast<std::size_t>(width);
    if (end > data_.size() * 8) {
        throw std::out_of_range("extract_bits: past end of packet");
    }
    if (width <= 64) {
        // Fast path: gather the covering bytes big-endian, then shift the
        // value (ending at wire bit `end`) down into place.
        const std::size_t first = bit_offset / 8;
        const std::size_t last = (end + 7) / 8;  // exclusive
        unsigned __int128 acc = 0;
        for (std::size_t i = first; i < last; ++i) {
            acc = (acc << 8) | data_[i];
        }
        acc >>= 8 * last - end;
        return util::Bitvec(width, static_cast<std::uint64_t>(acc));
    }
    util::Bitvec v(width);
    for (int i = 0; i < width; ++i) {
        const std::size_t pos = bit_offset + static_cast<std::size_t>(i);
        const std::uint8_t byte = data_[pos / 8];
        const bool bit = (byte >> (7 - pos % 8)) & 1;
        // Wire bit i (MSB-first) is value bit (width-1-i).
        if (bit) v.set_bit(width - 1 - i, true);
    }
    return v;
}

void Packet::deposit_bits(std::size_t bit_offset, const util::Bitvec& value) {
    const int width = value.width();
    const std::size_t end = bit_offset + static_cast<std::size_t>(width);
    if (end > data_.size() * 8) {
        throw std::out_of_range("deposit_bits: past end of packet");
    }
    if (width > 0 && width <= 64) {
        // Fast path: read the covering bytes, splice the value in, write back.
        const std::size_t first = bit_offset / 8;
        const std::size_t last = (end + 7) / 8;  // exclusive
        unsigned __int128 acc = 0;
        for (std::size_t i = first; i < last; ++i) {
            acc = (acc << 8) | data_[i];
        }
        const unsigned shift = static_cast<unsigned>(8 * last - end);
        const unsigned __int128 mask =
            ((width >= 64 ? ~static_cast<unsigned __int128>(0) >> 64
                          : static_cast<unsigned __int128>((1ull << width) - 1)))
            << shift;
        acc = (acc & ~mask) |
              ((static_cast<unsigned __int128>(value.to_u64()) << shift) & mask);
        for (std::size_t i = last; i-- > first;) {
            data_[i] = static_cast<std::uint8_t>(acc);
            acc >>= 8;
        }
        return;
    }
    for (int i = 0; i < width; ++i) {
        const std::size_t pos = bit_offset + static_cast<std::size_t>(i);
        const std::uint8_t mask = static_cast<std::uint8_t>(1u << (7 - pos % 8));
        if (value.bit(width - 1 - i)) {
            data_[pos / 8] |= mask;
        } else {
            data_[pos / 8] &= static_cast<std::uint8_t>(~mask);
        }
    }
}

void Packet::set_u(std::size_t bit_offset, int width, std::uint64_t value) {
    if (width > 64) throw std::invalid_argument("set_u: width > 64");
    deposit_bits(bit_offset, util::Bitvec(width, value));
}

}  // namespace ndb::packet
