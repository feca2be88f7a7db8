#include "packet/checksum.h"

#include <array>

namespace ndb::packet {

std::uint32_t ones_complement_sum(std::span<const std::uint8_t> bytes,
                                  std::uint32_t initial) {
    std::uint32_t sum = initial;
    std::size_t i = 0;
    for (; i + 1 < bytes.size(); i += 2) {
        sum += (static_cast<std::uint32_t>(bytes[i]) << 8) | bytes[i + 1];
    }
    if (i < bytes.size()) {
        sum += static_cast<std::uint32_t>(bytes[i]) << 8;  // pad odd byte with 0
    }
    return sum;
}

std::uint16_t fold_checksum(std::uint32_t sum) {
    while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
    return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> bytes) {
    return fold_checksum(ones_complement_sum(bytes));
}

namespace {
std::array<std::uint32_t, 256> make_crc_table() {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
        table[n] = c;
    }
    return table;
}
}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
    static const auto table = make_crc_table();
    std::uint32_t c = 0xFFFFFFFFu;
    for (const auto b : bytes) {
        c = table[(c ^ b) & 0xFF] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFu;
}

}  // namespace ndb::packet
