#include "core/generator.h"

namespace ndb::core {

void TestPacketGenerator::write_stamp(packet::Packet& pkt, std::uint64_t seq,
                                      std::uint64_t t_ns) {
    if (pkt.size() < kStampBytes + 14) pkt.resize(kStampBytes + 14);
    const std::size_t base = pkt.size() - kStampBytes;
    for (int i = 0; i < 8; ++i) {
        pkt.set_byte(base + static_cast<std::size_t>(i),
                     static_cast<std::uint8_t>(seq >> (56 - 8 * i)));
        pkt.set_byte(base + 8 + static_cast<std::size_t>(i),
                     static_cast<std::uint8_t>(t_ns >> (56 - 8 * i)));
    }
}

bool TestPacketGenerator::read_stamp(const packet::Packet& pkt, std::uint64_t& seq,
                                     std::uint64_t& t_ns) {
    if (pkt.size() < kStampBytes) return false;
    const std::size_t base = pkt.size() - kStampBytes;
    seq = 0;
    t_ns = 0;
    for (int i = 0; i < 8; ++i) {
        seq = (seq << 8) | pkt.byte(base + static_cast<std::size_t>(i));
        t_ns = (t_ns << 8) | pkt.byte(base + 8 + static_cast<std::size_t>(i));
    }
    return true;
}

packet::Packet TestPacketGenerator::make_packet(std::uint64_t seq,
                                                std::uint64_t inject_ns) const {
    packet::Packet pkt = instantiate(spec_.tmpl, seq);
    pkt.meta.id = seq;
    pkt.meta.ingress_port = spec_.inject_port;
    pkt.meta.rx_time_ns = inject_ns;
    write_stamp(pkt, seq, inject_ns);
    return pkt;
}

}  // namespace ndb::core
