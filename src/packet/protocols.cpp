#include "packet/protocols.h"

#include <stdexcept>

#include "packet/checksum.h"
#include "util/strings.h"

namespace ndb::packet {

Mac mac_from_string(std::string_view text) {
    const auto parts = util::split(text, ':');
    if (parts.size() != 6) throw std::invalid_argument("bad MAC: " + std::string(text));
    Mac mac{};
    for (int i = 0; i < 6; ++i) {
        mac[i] = static_cast<std::uint8_t>(std::stoul(parts[i], nullptr, 16));
    }
    return mac;
}

std::uint32_t ipv4_from_string(std::string_view text) {
    const auto parts = util::split(text, '.');
    if (parts.size() != 4) throw std::invalid_argument("bad IPv4: " + std::string(text));
    std::uint32_t addr = 0;
    for (const auto& part : parts) {
        const unsigned long v = std::stoul(part);
        if (v > 255) throw std::invalid_argument("bad IPv4 octet: " + part);
        addr = (addr << 8) | static_cast<std::uint32_t>(v);
    }
    return addr;
}

// --- header encode ---------------------------------------------------------

void EthernetHeader::write(Packet& p, std::size_t offset) const {
    for (int i = 0; i < 6; ++i) p.set_byte(offset + i, dst[i]);
    for (int i = 0; i < 6; ++i) p.set_byte(offset + 6 + i, src[i]);
    p.set_u((offset + 12) * 8, 16, ethertype);
}

void Ipv4Header::write(Packet& p, std::size_t offset) const {
    const std::size_t b = offset * 8;
    p.set_u(b, 4, version);
    p.set_u(b + 4, 4, ihl);
    p.set_u(b + 8, 6, dscp);
    p.set_u(b + 14, 2, ecn);
    p.set_u(b + 16, 16, total_len);
    p.set_u(b + 32, 16, identification);
    p.set_u(b + 48, 3, flags);
    p.set_u(b + 51, 13, frag_offset);
    p.set_u(b + 64, 8, ttl);
    p.set_u(b + 72, 8, protocol);
    p.set_u(b + 80, 16, checksum);
    p.set_u(b + 96, 32, src);
    p.set_u(b + 128, 32, dst);
}

std::uint16_t Ipv4Header::compute_checksum(const Packet& p, std::size_t offset) {
    // Checksum field (bytes 10-11) counts as zero during computation.
    std::vector<std::uint8_t> hdr(p.data().begin() + static_cast<long>(offset),
                                  p.data().begin() + static_cast<long>(offset + kSize));
    hdr[10] = 0;
    hdr[11] = 0;
    return internet_checksum(hdr);
}

void UdpHeader::write(Packet& p, std::size_t offset) const {
    const std::size_t b = offset * 8;
    p.set_u(b, 16, src_port);
    p.set_u(b + 16, 16, dst_port);
    p.set_u(b + 32, 16, length);
    p.set_u(b + 48, 16, checksum);
}

void ArpMessage::write(Packet& p, std::size_t offset) const {
    const std::size_t b = offset * 8;
    p.set_u(b, 16, 1);        // htype ethernet
    p.set_u(b + 16, 16, kEthertypeIpv4);
    p.set_u(b + 32, 8, 6);    // hlen
    p.set_u(b + 40, 8, 4);    // plen
    p.set_u(b + 48, 16, opcode);
    for (int i = 0; i < 6; ++i) p.set_byte(offset + 8 + i, sender_mac[i]);
    p.set_u((offset + 14) * 8, 32, sender_ip);
    for (int i = 0; i < 6; ++i) p.set_byte(offset + 18 + i, target_mac[i]);
    p.set_u((offset + 24) * 8, 32, target_ip);
}

// --- builder ----------------------------------------------------------------

PacketBuilder& PacketBuilder::ethernet(const Mac& dst, const Mac& src) {
    Layer l{};
    l.kind = Layer::Kind::ethernet;
    l.eth.dst = dst;
    l.eth.src = src;
    layers_.push_back(l);
    return *this;
}

PacketBuilder& PacketBuilder::ipv4(std::string_view src, std::string_view dst,
                                   std::uint8_t protocol, std::uint8_t ttl) {
    return ipv4_raw(ipv4_from_string(src), ipv4_from_string(dst), protocol, ttl);
}

PacketBuilder& PacketBuilder::ipv4_raw(std::uint32_t src, std::uint32_t dst,
                                       std::uint8_t protocol, std::uint8_t ttl) {
    Layer l{};
    l.kind = Layer::Kind::ipv4;
    l.ip4.src = src;
    l.ip4.dst = dst;
    l.ip4.protocol = protocol;
    l.ip4.ttl = ttl;
    layers_.push_back(l);
    return *this;
}

PacketBuilder& PacketBuilder::udp(std::uint16_t src_port, std::uint16_t dst_port) {
    Layer l{};
    l.kind = Layer::Kind::udp;
    l.udp.src_port = src_port;
    l.udp.dst_port = dst_port;
    layers_.push_back(l);
    return *this;
}

PacketBuilder& PacketBuilder::arp(const ArpMessage& msg) {
    Layer l{};
    l.kind = Layer::Kind::arp;
    l.arp = msg;
    layers_.push_back(l);
    return *this;
}

PacketBuilder& PacketBuilder::payload_size(std::size_t n, std::uint8_t fill) {
    payload_.assign(n, fill);
    return *this;
}

Packet PacketBuilder::build() const {
    // First pass: total size and per-layer offsets.
    std::size_t size = 0;
    std::vector<std::size_t> offsets;
    offsets.reserve(layers_.size());
    for (const auto& l : layers_) {
        offsets.push_back(size);
        switch (l.kind) {
            case Layer::Kind::ethernet: size += EthernetHeader::kSize; break;
            case Layer::Kind::ipv4: size += Ipv4Header::kSize; break;
            case Layer::Kind::udp: size += UdpHeader::kSize; break;
            case Layer::Kind::arp: size += ArpMessage::kSize; break;
        }
    }
    const std::size_t payload_offset = size;
    size += payload_.size();
    Packet p = Packet::zeros(size);
    for (std::size_t i = 0; i < payload_.size(); ++i) {
        p.set_byte(payload_offset + i, payload_[i]);
    }

    // Second pass: write headers, chaining ethertype / protocol defaults.
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        Layer l = layers_[i];
        const bool has_next = i + 1 < layers_.size();
        const auto next_kind = has_next ? layers_[i + 1].kind : Layer::Kind::ethernet;
        const auto ethertype_of = [](Layer::Kind k) -> std::uint16_t {
            switch (k) {
                case Layer::Kind::ipv4: return kEthertypeIpv4;
                case Layer::Kind::arp: return kEthertypeArp;
                default: return 0xFFFF;
            }
        };
        switch (l.kind) {
            case Layer::Kind::ethernet:
                if (l.eth.ethertype == 0 && has_next) l.eth.ethertype = ethertype_of(next_kind);
                l.eth.write(p, offsets[i]);
                break;
            case Layer::Kind::ipv4: {
                l.ip4.total_len = static_cast<std::uint16_t>(size - offsets[i]);
                if (has_next && l.ip4.protocol == 0 && next_kind == Layer::Kind::udp) {
                    l.ip4.protocol = kIpProtoUdp;
                }
                l.ip4.write(p, offsets[i]);
                const std::uint16_t csum = Ipv4Header::compute_checksum(p, offsets[i]);
                p.set_u((offsets[i] + 10) * 8, 16, csum);
                break;
            }
            case Layer::Kind::udp:
                l.udp.length = static_cast<std::uint16_t>(size - offsets[i]);
                l.udp.write(p, offsets[i]);
                break;
            case Layer::Kind::arp:
                l.arp.write(p, offsets[i]);
                break;
        }
    }
    return p;
}

}  // namespace ndb::packet
