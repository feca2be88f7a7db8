// Packet: a byte buffer with bit-granular field access plus device metadata.
//
// Bit addressing follows network order: bit offset 0 is the most significant
// bit of byte 0, matching how P4 header fields map onto the wire.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitvec.h"

namespace ndb::packet {

// Metadata carried alongside a packet while it traverses a device model.
struct PacketMeta {
    std::uint32_t ingress_port = 0;
    std::uint32_t egress_port = 0;
    std::uint64_t rx_time_ns = 0;   // when the device accepted the packet
    std::uint64_t tx_time_ns = 0;   // when the device emitted it (0 until sent)
    std::uint64_t id = 0;           // monotonically assigned by generators
};

class Packet {
public:
    Packet() = default;
    explicit Packet(std::vector<std::uint8_t> bytes) : data_(std::move(bytes)) {}
    static Packet zeros(std::size_t n) { return Packet(std::vector<std::uint8_t>(n, 0)); }

    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    std::span<const std::uint8_t> bytes() const { return data_; }
    std::span<std::uint8_t> bytes_mut() { return data_; }
    const std::vector<std::uint8_t>& data() const { return data_; }

    std::uint8_t byte(std::size_t i) const { return data_.at(i); }
    void set_byte(std::size_t i, std::uint8_t v) { data_.at(i) = v; }

    // Reads `width` bits starting at `bit_offset` (network order).
    // Throws std::out_of_range past the end of the buffer.
    util::Bitvec extract_bits(std::size_t bit_offset, int width) const;

    // Writes value.width() bits at `bit_offset`.
    void deposit_bits(std::size_t bit_offset, const util::Bitvec& value);

    // Convenience for fields of <= 64 bits.
    void set_u(std::size_t bit_offset, int width, std::uint64_t value);

    void resize(std::size_t n) { data_.resize(n, 0); }

    // Structural equality on bytes only (metadata excluded).
    bool same_bytes(const Packet& o) const { return data_ == o.data_; }

    PacketMeta meta;

private:
    std::vector<std::uint8_t> data_;
};

}  // namespace ndb::packet
