// Protocol header definitions and a builder.
//
// These model the concrete wire formats the examples, the scenario toolkit
// and the workload generators speak.  The P4 data plane itself never uses
// these structs: it works from the header layouts in the P4 program, which
// is exactly the separation the paper's framework relies on (the campaign
// diff compares what the *program* should do, as the reference executes
// it, with what the *device* did).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "packet/packet.h"

namespace ndb::packet {

using Mac = std::array<std::uint8_t, 6>;

Mac mac_from_string(std::string_view text);    // "aa:bb:cc:dd:ee:ff"
std::uint32_t ipv4_from_string(std::string_view text);  // "10.0.0.1"

inline constexpr std::uint16_t kEthertypeIpv4 = 0x0800;
inline constexpr std::uint16_t kEthertypeArp = 0x0806;

inline constexpr std::uint8_t kIpProtoUdp = 17;

struct EthernetHeader {
    static constexpr std::size_t kSize = 14;
    Mac dst{};
    Mac src{};
    std::uint16_t ethertype = 0;

    void write(Packet& p, std::size_t offset) const;
};

// The test packet generator's stamp (core::TestPacketGenerator): the last
// kStampBytes of every generated packet hold its 8-byte sequence number and
// 8-byte inject time, and a shorter packet first grows to kMinStampedBytes
// (an Ethernet header plus the stamp).
inline constexpr std::size_t kStampBytes = 16;
inline constexpr std::size_t kMinStampedBytes = EthernetHeader::kSize + kStampBytes;

struct Ipv4Header {
    static constexpr std::size_t kSize = 20;  // no options in this model
    std::uint8_t version = 4;
    std::uint8_t ihl = 5;
    std::uint8_t dscp = 0;
    std::uint8_t ecn = 0;
    std::uint16_t total_len = 0;
    std::uint16_t identification = 0;
    std::uint8_t flags = 0;       // 3 bits
    std::uint16_t frag_offset = 0;
    std::uint8_t ttl = 64;
    std::uint8_t protocol = 0;
    std::uint16_t checksum = 0;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;

    void write(Packet& p, std::size_t offset) const;
    // Checksum over the 20 header bytes as currently laid out in `p`.
    static std::uint16_t compute_checksum(const Packet& p, std::size_t offset);
};

struct UdpHeader {
    static constexpr std::size_t kSize = 8;
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::uint16_t length = 0;
    std::uint16_t checksum = 0;

    void write(Packet& p, std::size_t offset) const;
};

struct ArpMessage {
    static constexpr std::size_t kSize = 28;
    std::uint16_t opcode = 1;  // 1 request, 2 reply
    Mac sender_mac{};
    std::uint32_t sender_ip = 0;
    Mac target_mac{};
    std::uint32_t target_ip = 0;

    void write(Packet& p, std::size_t offset) const;
};

// Fluent builder that stacks headers, then fixes lengths and checksums.
//
//   Packet p = PacketBuilder()
//       .ethernet(dst_mac, src_mac)
//       .ipv4("10.0.0.1", "10.0.0.2", kIpProtoUdp)
//       .udp(1234, 4321)
//       .payload_size(64)
//       .build();
class PacketBuilder {
public:
    PacketBuilder& ethernet(const Mac& dst, const Mac& src);
    PacketBuilder& ipv4(std::string_view src, std::string_view dst,
                        std::uint8_t protocol, std::uint8_t ttl = 64);
    PacketBuilder& ipv4_raw(std::uint32_t src, std::uint32_t dst,
                            std::uint8_t protocol, std::uint8_t ttl = 64);
    PacketBuilder& udp(std::uint16_t src_port, std::uint16_t dst_port);
    PacketBuilder& arp(const ArpMessage& msg);
    PacketBuilder& payload_size(std::size_t n, std::uint8_t fill = 0);

    // Lays out every header, patches lengths, then computes checksums.
    Packet build() const;

private:
    struct Layer {
        enum class Kind { ethernet, ipv4, udp, arp } kind;
        EthernetHeader eth;
        Ipv4Header ip4;
        UdpHeader udp;
        ArpMessage arp;
    };
    std::vector<Layer> layers_;
    std::vector<std::uint8_t> payload_;
};

}  // namespace ndb::packet
