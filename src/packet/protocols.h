// Protocol header definitions, builders and a decoder.
//
// These model the concrete wire formats the examples, workload generators
// and the external-tester substrate speak.  The P4 data plane itself never
// uses these structs: it works from the header layouts in the P4 program,
// which is exactly the separation the paper's framework relies on (the
// checker compares what the *program* should do with what the *device* did).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "packet/packet.h"

namespace ndb::packet {

using Mac = std::array<std::uint8_t, 6>;

Mac mac_from_string(std::string_view text);    // "aa:bb:cc:dd:ee:ff"
std::string mac_to_string(const Mac& mac);
std::uint32_t ipv4_from_string(std::string_view text);  // "10.0.0.1"
std::string ipv4_to_string(std::uint32_t addr);

inline constexpr std::uint16_t kEthertypeIpv4 = 0x0800;
inline constexpr std::uint16_t kEthertypeArp = 0x0806;
inline constexpr std::uint16_t kEthertypeVlan = 0x8100;
inline constexpr std::uint16_t kEthertypeIpv6 = 0x86DD;

inline constexpr std::uint8_t kIpProtoIcmp = 1;
inline constexpr std::uint8_t kIpProtoTcp = 6;
inline constexpr std::uint8_t kIpProtoUdp = 17;

struct EthernetHeader {
    static constexpr std::size_t kSize = 14;
    Mac dst{};
    Mac src{};
    std::uint16_t ethertype = 0;

    void write(Packet& p, std::size_t offset) const;
    static EthernetHeader read(const Packet& p, std::size_t offset);
};

struct VlanTag {
    static constexpr std::size_t kSize = 4;
    std::uint8_t pcp = 0;    // 3 bits
    bool dei = false;
    std::uint16_t vid = 0;   // 12 bits
    std::uint16_t ethertype = 0;

    void write(Packet& p, std::size_t offset) const;
    static VlanTag read(const Packet& p, std::size_t offset);
};

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
    static Ipv4Header read(const Packet& p, std::size_t offset);
    // Checksum over the 20 header bytes as currently laid out in `p`.
    static std::uint16_t compute_checksum(const Packet& p, std::size_t offset);
};

struct Ipv6Header {
    static constexpr std::size_t kSize = 40;
    std::uint8_t version = 6;
    std::uint8_t traffic_class = 0;
    std::uint32_t flow_label = 0;  // 20 bits
    std::uint16_t payload_len = 0;
    std::uint8_t next_header = 0;
    std::uint8_t hop_limit = 64;
    std::array<std::uint8_t, 16> src{};
    std::array<std::uint8_t, 16> dst{};

    void write(Packet& p, std::size_t offset) const;
    static Ipv6Header read(const Packet& p, std::size_t offset);
};

struct UdpHeader {
    static constexpr std::size_t kSize = 8;
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::uint16_t length = 0;
    std::uint16_t checksum = 0;

    void write(Packet& p, std::size_t offset) const;
    static UdpHeader read(const Packet& p, std::size_t offset);
};

struct TcpHeader {
    static constexpr std::size_t kSize = 20;  // no options
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::uint32_t seq = 0;
    std::uint32_t ack = 0;
    std::uint8_t data_offset = 5;
    std::uint8_t flags = 0;
    std::uint16_t window = 0;
    std::uint16_t checksum = 0;
    std::uint16_t urgent = 0;

    void write(Packet& p, std::size_t offset) const;
    static TcpHeader read(const Packet& p, std::size_t offset);
};

struct IcmpHeader {
    static constexpr std::size_t kSize = 8;
    std::uint8_t type = 8;   // echo request
    std::uint8_t code = 0;
    std::uint16_t checksum = 0;
    std::uint16_t identifier = 0;
    std::uint16_t sequence = 0;

    static IcmpHeader read(const Packet& p, std::size_t offset);
};

struct ArpMessage {
    static constexpr std::size_t kSize = 28;
    std::uint16_t opcode = 1;  // 1 request, 2 reply
    Mac sender_mac{};
    std::uint32_t sender_ip = 0;
    Mac target_mac{};
    std::uint32_t target_ip = 0;

    void write(Packet& p, std::size_t offset) const;
    static ArpMessage read(const Packet& p, std::size_t offset);
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
    PacketBuilder& vlan(std::uint16_t vid, std::uint8_t pcp = 0);
    PacketBuilder& ipv4(std::string_view src, std::string_view dst,
                        std::uint8_t protocol, std::uint8_t ttl = 64);
    PacketBuilder& ipv4_raw(std::uint32_t src, std::uint32_t dst,
                            std::uint8_t protocol, std::uint8_t ttl = 64);
    PacketBuilder& ipv6(const std::array<std::uint8_t, 16>& src,
                        const std::array<std::uint8_t, 16>& dst,
                        std::uint8_t next_header, std::uint8_t hop_limit = 64);
    PacketBuilder& udp(std::uint16_t src_port, std::uint16_t dst_port);
    PacketBuilder& tcp(std::uint16_t src_port, std::uint16_t dst_port,
                       std::uint32_t seq = 0, std::uint8_t flags = 0x02);
    PacketBuilder& arp(const ArpMessage& msg);
    PacketBuilder& payload(std::span<const std::uint8_t> bytes);
    PacketBuilder& payload_size(std::size_t n, std::uint8_t fill = 0);

    // Lays out every header, patches lengths, then computes checksums.
    Packet build() const;

private:
    struct Layer {
        enum class Kind { ethernet, vlan, ipv4, ipv6, udp, tcp, arp } kind;
        EthernetHeader eth;
        VlanTag vlan;
        Ipv4Header ip4;
        Ipv6Header ip6;
        UdpHeader udp;
        TcpHeader tcp;
        ArpMessage arp;
    };
    std::vector<Layer> layers_;
    std::vector<std::uint8_t> payload_;
};

// Best-effort decode of a packet into its header stack; fields the decoder
// cannot reach (truncated packet) are left unset.
struct Decoded {
    std::optional<EthernetHeader> eth;
    std::vector<VlanTag> vlans;
    std::optional<Ipv4Header> ipv4;
    std::optional<Ipv6Header> ipv6;
    std::optional<UdpHeader> udp;
    std::optional<TcpHeader> tcp;
    std::optional<IcmpHeader> icmp;
    std::optional<ArpMessage> arp;
    std::size_t payload_offset = 0;

    std::string summary() const;
};

Decoded decode(const Packet& p);

}  // namespace ndb::packet
