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

std::string mac_to_string(const Mac& mac) {
    return util::format("%02x:%02x:%02x:%02x:%02x:%02x", mac[0], mac[1], mac[2],
                        mac[3], mac[4], mac[5]);
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

std::string ipv4_to_string(std::uint32_t addr) {
    return util::format("%u.%u.%u.%u", addr >> 24, (addr >> 16) & 0xff,
                        (addr >> 8) & 0xff, addr & 0xff);
}

// --- header encode/decode -------------------------------------------------

void EthernetHeader::write(Packet& p, std::size_t offset) const {
    for (int i = 0; i < 6; ++i) p.set_byte(offset + i, dst[i]);
    for (int i = 0; i < 6; ++i) p.set_byte(offset + 6 + i, src[i]);
    p.set_u((offset + 12) * 8, 16, ethertype);
}

EthernetHeader EthernetHeader::read(const Packet& p, std::size_t offset) {
    EthernetHeader h;
    for (int i = 0; i < 6; ++i) h.dst[i] = p.byte(offset + i);
    for (int i = 0; i < 6; ++i) h.src[i] = p.byte(offset + 6 + i);
    h.ethertype = static_cast<std::uint16_t>(p.u((offset + 12) * 8, 16));
    return h;
}

void VlanTag::write(Packet& p, std::size_t offset) const {
    p.set_u(offset * 8, 3, pcp);
    p.set_u(offset * 8 + 3, 1, dei ? 1 : 0);
    p.set_u(offset * 8 + 4, 12, vid);
    p.set_u((offset + 2) * 8, 16, ethertype);
}

VlanTag VlanTag::read(const Packet& p, std::size_t offset) {
    VlanTag t;
    t.pcp = static_cast<std::uint8_t>(p.u(offset * 8, 3));
    t.dei = p.u(offset * 8 + 3, 1) != 0;
    t.vid = static_cast<std::uint16_t>(p.u(offset * 8 + 4, 12));
    t.ethertype = static_cast<std::uint16_t>(p.u((offset + 2) * 8, 16));
    return t;
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

Ipv4Header Ipv4Header::read(const Packet& p, std::size_t offset) {
    const std::size_t b = offset * 8;
    Ipv4Header h;
    h.version = static_cast<std::uint8_t>(p.u(b, 4));
    h.ihl = static_cast<std::uint8_t>(p.u(b + 4, 4));
    h.dscp = static_cast<std::uint8_t>(p.u(b + 8, 6));
    h.ecn = static_cast<std::uint8_t>(p.u(b + 14, 2));
    h.total_len = static_cast<std::uint16_t>(p.u(b + 16, 16));
    h.identification = static_cast<std::uint16_t>(p.u(b + 32, 16));
    h.flags = static_cast<std::uint8_t>(p.u(b + 48, 3));
    h.frag_offset = static_cast<std::uint16_t>(p.u(b + 51, 13));
    h.ttl = static_cast<std::uint8_t>(p.u(b + 64, 8));
    h.protocol = static_cast<std::uint8_t>(p.u(b + 72, 8));
    h.checksum = static_cast<std::uint16_t>(p.u(b + 80, 16));
    h.src = static_cast<std::uint32_t>(p.u(b + 96, 32));
    h.dst = static_cast<std::uint32_t>(p.u(b + 128, 32));
    return h;
}

std::uint16_t Ipv4Header::compute_checksum(const Packet& p, std::size_t offset) {
    // Checksum field (bytes 10-11) counts as zero during computation.
    std::vector<std::uint8_t> hdr(p.bytes().begin() + static_cast<long>(offset),
                                  p.bytes().begin() + static_cast<long>(offset + kSize));
    hdr[10] = 0;
    hdr[11] = 0;
    return internet_checksum(hdr);
}

void Ipv6Header::write(Packet& p, std::size_t offset) const {
    const std::size_t b = offset * 8;
    p.set_u(b, 4, version);
    p.set_u(b + 4, 8, traffic_class);
    p.set_u(b + 12, 20, flow_label);
    p.set_u(b + 32, 16, payload_len);
    p.set_u(b + 48, 8, next_header);
    p.set_u(b + 56, 8, hop_limit);
    for (int i = 0; i < 16; ++i) p.set_byte(offset + 8 + i, src[i]);
    for (int i = 0; i < 16; ++i) p.set_byte(offset + 24 + i, dst[i]);
}

Ipv6Header Ipv6Header::read(const Packet& p, std::size_t offset) {
    const std::size_t b = offset * 8;
    Ipv6Header h;
    h.version = static_cast<std::uint8_t>(p.u(b, 4));
    h.traffic_class = static_cast<std::uint8_t>(p.u(b + 4, 8));
    h.flow_label = static_cast<std::uint32_t>(p.u(b + 12, 20));
    h.payload_len = static_cast<std::uint16_t>(p.u(b + 32, 16));
    h.next_header = static_cast<std::uint8_t>(p.u(b + 48, 8));
    h.hop_limit = static_cast<std::uint8_t>(p.u(b + 56, 8));
    for (int i = 0; i < 16; ++i) h.src[i] = p.byte(offset + 8 + i);
    for (int i = 0; i < 16; ++i) h.dst[i] = p.byte(offset + 24 + i);
    return h;
}

void UdpHeader::write(Packet& p, std::size_t offset) const {
    const std::size_t b = offset * 8;
    p.set_u(b, 16, src_port);
    p.set_u(b + 16, 16, dst_port);
    p.set_u(b + 32, 16, length);
    p.set_u(b + 48, 16, checksum);
}

UdpHeader UdpHeader::read(const Packet& p, std::size_t offset) {
    const std::size_t b = offset * 8;
    UdpHeader h;
    h.src_port = static_cast<std::uint16_t>(p.u(b, 16));
    h.dst_port = static_cast<std::uint16_t>(p.u(b + 16, 16));
    h.length = static_cast<std::uint16_t>(p.u(b + 32, 16));
    h.checksum = static_cast<std::uint16_t>(p.u(b + 48, 16));
    return h;
}

void TcpHeader::write(Packet& p, std::size_t offset) const {
    const std::size_t b = offset * 8;
    p.set_u(b, 16, src_port);
    p.set_u(b + 16, 16, dst_port);
    p.set_u(b + 32, 32, seq);
    p.set_u(b + 64, 32, ack);
    p.set_u(b + 96, 4, data_offset);
    p.set_u(b + 100, 4, 0);  // reserved
    p.set_u(b + 104, 8, flags);
    p.set_u(b + 112, 16, window);
    p.set_u(b + 128, 16, checksum);
    p.set_u(b + 144, 16, urgent);
}

TcpHeader TcpHeader::read(const Packet& p, std::size_t offset) {
    const std::size_t b = offset * 8;
    TcpHeader h;
    h.src_port = static_cast<std::uint16_t>(p.u(b, 16));
    h.dst_port = static_cast<std::uint16_t>(p.u(b + 16, 16));
    h.seq = static_cast<std::uint32_t>(p.u(b + 32, 32));
    h.ack = static_cast<std::uint32_t>(p.u(b + 64, 32));
    h.data_offset = static_cast<std::uint8_t>(p.u(b + 96, 4));
    h.flags = static_cast<std::uint8_t>(p.u(b + 104, 8));
    h.window = static_cast<std::uint16_t>(p.u(b + 112, 16));
    h.checksum = static_cast<std::uint16_t>(p.u(b + 128, 16));
    h.urgent = static_cast<std::uint16_t>(p.u(b + 144, 16));
    return h;
}

IcmpHeader IcmpHeader::read(const Packet& p, std::size_t offset) {
    const std::size_t b = offset * 8;
    IcmpHeader h;
    h.type = static_cast<std::uint8_t>(p.u(b, 8));
    h.code = static_cast<std::uint8_t>(p.u(b + 8, 8));
    h.checksum = static_cast<std::uint16_t>(p.u(b + 16, 16));
    h.identifier = static_cast<std::uint16_t>(p.u(b + 32, 16));
    h.sequence = static_cast<std::uint16_t>(p.u(b + 48, 16));
    return h;
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

ArpMessage ArpMessage::read(const Packet& p, std::size_t offset) {
    ArpMessage m;
    m.opcode = static_cast<std::uint16_t>(p.u((offset + 6) * 8, 16));
    for (int i = 0; i < 6; ++i) m.sender_mac[i] = p.byte(offset + 8 + i);
    m.sender_ip = static_cast<std::uint32_t>(p.u((offset + 14) * 8, 32));
    for (int i = 0; i < 6; ++i) m.target_mac[i] = p.byte(offset + 18 + i);
    m.target_ip = static_cast<std::uint32_t>(p.u((offset + 24) * 8, 32));
    return m;
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

PacketBuilder& PacketBuilder::vlan(std::uint16_t vid, std::uint8_t pcp) {
    Layer l{};
    l.kind = Layer::Kind::vlan;
    l.vlan.vid = vid;
    l.vlan.pcp = pcp;
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

PacketBuilder& PacketBuilder::ipv6(const std::array<std::uint8_t, 16>& src,
                                   const std::array<std::uint8_t, 16>& dst,
                                   std::uint8_t next_header, std::uint8_t hop_limit) {
    Layer l{};
    l.kind = Layer::Kind::ipv6;
    l.ip6.src = src;
    l.ip6.dst = dst;
    l.ip6.next_header = next_header;
    l.ip6.hop_limit = hop_limit;
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

PacketBuilder& PacketBuilder::tcp(std::uint16_t src_port, std::uint16_t dst_port,
                                  std::uint32_t seq, std::uint8_t flags) {
    Layer l{};
    l.kind = Layer::Kind::tcp;
    l.tcp.src_port = src_port;
    l.tcp.dst_port = dst_port;
    l.tcp.seq = seq;
    l.tcp.flags = flags;
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

PacketBuilder& PacketBuilder::payload(std::span<const std::uint8_t> bytes) {
    payload_.assign(bytes.begin(), bytes.end());
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
            case Layer::Kind::vlan: size += VlanTag::kSize; break;
            case Layer::Kind::ipv4: size += Ipv4Header::kSize; break;
            case Layer::Kind::ipv6: size += Ipv6Header::kSize; break;
            case Layer::Kind::udp: size += UdpHeader::kSize; break;
            case Layer::Kind::tcp: size += TcpHeader::kSize; break;
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
                case Layer::Kind::vlan: return kEthertypeVlan;
                case Layer::Kind::ipv4: return kEthertypeIpv4;
                case Layer::Kind::ipv6: return kEthertypeIpv6;
                case Layer::Kind::arp: return kEthertypeArp;
                default: return 0xFFFF;
            }
        };
        switch (l.kind) {
            case Layer::Kind::ethernet:
                if (l.eth.ethertype == 0 && has_next) l.eth.ethertype = ethertype_of(next_kind);
                l.eth.write(p, offsets[i]);
                break;
            case Layer::Kind::vlan:
                if (l.vlan.ethertype == 0 && has_next) l.vlan.ethertype = ethertype_of(next_kind);
                l.vlan.write(p, offsets[i]);
                break;
            case Layer::Kind::ipv4: {
                l.ip4.total_len = static_cast<std::uint16_t>(size - offsets[i]);
                if (has_next && l.ip4.protocol == 0) {
                    if (next_kind == Layer::Kind::udp) l.ip4.protocol = kIpProtoUdp;
                    if (next_kind == Layer::Kind::tcp) l.ip4.protocol = kIpProtoTcp;
                }
                l.ip4.write(p, offsets[i]);
                const std::uint16_t csum = Ipv4Header::compute_checksum(p, offsets[i]);
                p.set_u((offsets[i] + 10) * 8, 16, csum);
                break;
            }
            case Layer::Kind::ipv6:
                l.ip6.payload_len = static_cast<std::uint16_t>(size - offsets[i] - Ipv6Header::kSize);
                l.ip6.write(p, offsets[i]);
                break;
            case Layer::Kind::udp:
                l.udp.length = static_cast<std::uint16_t>(size - offsets[i]);
                l.udp.write(p, offsets[i]);
                break;
            case Layer::Kind::tcp:
                l.tcp.write(p, offsets[i]);
                break;
            case Layer::Kind::arp:
                l.arp.write(p, offsets[i]);
                break;
        }
    }
    return p;
}

// --- decoder ----------------------------------------------------------------

Decoded decode(const Packet& p) {
    Decoded d;
    std::size_t off = 0;
    if (p.size() < off + EthernetHeader::kSize) return d;
    d.eth = EthernetHeader::read(p, off);
    off += EthernetHeader::kSize;
    std::uint16_t ethertype = d.eth->ethertype;
    while (ethertype == kEthertypeVlan && p.size() >= off + VlanTag::kSize) {
        d.vlans.push_back(VlanTag::read(p, off));
        ethertype = d.vlans.back().ethertype;
        off += VlanTag::kSize;
    }
    if (ethertype == kEthertypeArp && p.size() >= off + ArpMessage::kSize) {
        d.arp = ArpMessage::read(p, off);
        off += ArpMessage::kSize;
    } else if (ethertype == kEthertypeIpv4 && p.size() >= off + Ipv4Header::kSize) {
        d.ipv4 = Ipv4Header::read(p, off);
        off += Ipv4Header::kSize;
        switch (d.ipv4->protocol) {
            case kIpProtoUdp:
                if (p.size() >= off + UdpHeader::kSize) {
                    d.udp = UdpHeader::read(p, off);
                    off += UdpHeader::kSize;
                }
                break;
            case kIpProtoTcp:
                if (p.size() >= off + TcpHeader::kSize) {
                    d.tcp = TcpHeader::read(p, off);
                    off += TcpHeader::kSize;
                }
                break;
            case kIpProtoIcmp:
                if (p.size() >= off + IcmpHeader::kSize) {
                    d.icmp = IcmpHeader::read(p, off);
                    off += IcmpHeader::kSize;
                }
                break;
            default:
                break;
        }
    } else if (ethertype == kEthertypeIpv6 && p.size() >= off + Ipv6Header::kSize) {
        d.ipv6 = Ipv6Header::read(p, off);
        off += Ipv6Header::kSize;
        if (d.ipv6->next_header == kIpProtoUdp && p.size() >= off + UdpHeader::kSize) {
            d.udp = UdpHeader::read(p, off);
            off += UdpHeader::kSize;
        } else if (d.ipv6->next_header == kIpProtoTcp && p.size() >= off + TcpHeader::kSize) {
            d.tcp = TcpHeader::read(p, off);
            off += TcpHeader::kSize;
        }
    }
    d.payload_offset = off;
    return d;
}

std::string Decoded::summary() const {
    std::string s;
    if (eth) {
        s += "eth " + mac_to_string(eth->src) + " > " + mac_to_string(eth->dst);
    }
    for (const auto& v : vlans) s += util::format(" vlan %u", v.vid);
    if (arp) s += util::format(" arp op=%u", arp->opcode);
    if (ipv4) {
        s += " ipv4 " + ipv4_to_string(ipv4->src) + " > " + ipv4_to_string(ipv4->dst) +
             util::format(" ttl=%u proto=%u", ipv4->ttl, ipv4->protocol);
    }
    if (ipv6) s += " ipv6";
    if (udp) s += util::format(" udp %u > %u", udp->src_port, udp->dst_port);
    if (tcp) s += util::format(" tcp %u > %u", tcp->src_port, tcp->dst_port);
    if (icmp) s += util::format(" icmp type=%u", icmp->type);
    return s;
}

}  // namespace ndb::packet
