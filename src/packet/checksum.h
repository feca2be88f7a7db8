// Checksums used by the protocol builders and the data-plane checksum unit.
#pragma once

#include <cstdint>
#include <span>

namespace ndb::packet {

// RFC 1071 Internet checksum over an arbitrary byte span.
// Returns the final complemented 16-bit checksum in host order.
std::uint16_t internet_checksum(std::span<const std::uint8_t> bytes);

// Ones-complement sum without the final complement, for composing the
// TCP/UDP pseudo-header with the payload.
std::uint32_t ones_complement_sum(std::span<const std::uint8_t> bytes,
                                  std::uint32_t initial = 0);

// Folds a 32-bit ones-complement accumulator to 16 bits and complements it.
std::uint16_t fold_checksum(std::uint32_t sum);

// IEEE 802.3 CRC32 (reflected, polynomial 0xEDB88320).
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

}  // namespace ndb::packet
