#include "packet/packet.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ndb::packet {

void Packet::throw_past_end(const char* what) {
    throw std::out_of_range(std::string("Packet::") + what + ": index past end of packet");
}

void Packet::resize(std::size_t n) {
    if (n == size_) return;
    if (n > kInlineBytes) {
        auto* buf = new std::uint8_t[n];
        const std::size_t keep = std::min(size_, n);
        if (keep != 0) std::memcpy(buf, storage(), keep);
        std::memset(buf + keep, 0, n - keep);
        delete[] heap_;
        heap_ = buf;
    } else if (on_heap()) {
        std::memcpy(inline_, heap_, n);
        delete[] heap_;
        heap_ = nullptr;
    } else if (n > size_) {
        std::memset(inline_ + size_, 0, n - size_);
    }
    size_ = n;
}

util::Bitvec Packet::extract_bits(std::size_t bit_offset, int width) const {
    if (width < 0) throw std::invalid_argument("extract_bits: negative width");
    const std::size_t end = bit_offset + static_cast<std::size_t>(width);
    if (end > size_ * 8) {
        throw std::out_of_range("extract_bits: past end of packet");
    }
    const std::uint8_t* data = storage();
    if (width <= 64) {
        // Fast path: gather the covering bytes big-endian, then shift the
        // value (ending at wire bit `end`) down into place.
        const std::size_t first = bit_offset / 8;
        const std::size_t last = (end + 7) / 8;  // exclusive
        unsigned __int128 acc = 0;
        for (std::size_t i = first; i < last; ++i) {
            acc = (acc << 8) | data[i];
        }
        acc >>= 8 * last - end;
        return util::Bitvec(width, static_cast<std::uint64_t>(acc));
    }
    util::Bitvec v(width);
    for (int i = 0; i < width; ++i) {
        const std::size_t pos = bit_offset + static_cast<std::size_t>(i);
        const std::uint8_t byte = data[pos / 8];
        const bool bit = (byte >> (7 - pos % 8)) & 1;
        // Wire bit i (MSB-first) is value bit (width-1-i).
        if (bit) v.set_bit(width - 1 - i, true);
    }
    return v;
}

void Packet::deposit_bits(std::size_t bit_offset, const util::Bitvec& value) {
    const int width = value.width();
    const std::size_t end = bit_offset + static_cast<std::size_t>(width);
    if (end > size_ * 8) {
        throw std::out_of_range("deposit_bits: past end of packet");
    }
    std::uint8_t* data = storage();
    if (width > 0 && width <= 64) {
        // Fast path: read the covering bytes, splice the value in, write back.
        const std::size_t first = bit_offset / 8;
        const std::size_t last = (end + 7) / 8;  // exclusive
        unsigned __int128 acc = 0;
        for (std::size_t i = first; i < last; ++i) {
            acc = (acc << 8) | data[i];
        }
        const unsigned shift = static_cast<unsigned>(8 * last - end);
        const unsigned __int128 mask =
            ((width >= 64 ? ~static_cast<unsigned __int128>(0) >> 64
                          : static_cast<unsigned __int128>((1ull << width) - 1)))
            << shift;
        acc = (acc & ~mask) |
              ((static_cast<unsigned __int128>(value.to_u64()) << shift) & mask);
        for (std::size_t i = last; i-- > first;) {
            data[i] = static_cast<std::uint8_t>(acc);
            acc >>= 8;
        }
        return;
    }
    for (int i = 0; i < width; ++i) {
        const std::size_t pos = bit_offset + static_cast<std::size_t>(i);
        const std::uint8_t mask = static_cast<std::uint8_t>(1u << (7 - pos % 8));
        if (value.bit(width - 1 - i)) {
            data[pos / 8] |= mask;
        } else {
            data[pos / 8] &= static_cast<std::uint8_t>(~mask);
        }
    }
}

void Packet::set_u(std::size_t bit_offset, int width, std::uint64_t value) {
    if (width > 64) throw std::invalid_argument("set_u: width > 64");
    deposit_bits(bit_offset, util::Bitvec(width, value));
}

}  // namespace ndb::packet
