#include "core/tools.h"

#include "p4/compiler.h"

namespace ndb::core::scenario {

packet::Mac host_mac(int n) {
    return {0x02, 0x00, 0x00, 0x00, 0x00, static_cast<std::uint8_t>(n)};
}

std::uint32_t host_ip(int n) {
    return (10u << 24) | static_cast<std::uint32_t>(n);
}

packet::Packet ipv4_udp_packet(std::size_t payload, std::uint8_t ttl) {
    return packet::PacketBuilder()
        .ethernet(host_mac(2), host_mac(1))
        .ipv4_raw(host_ip(1), host_ip(2), packet::kIpProtoUdp, ttl)
        .udp(5000, 7000)
        .payload_size(payload)
        .build();
}

packet::Packet arp_packet() {
    packet::ArpMessage arp;
    arp.opcode = 1;
    arp.sender_mac = host_mac(1);
    arp.sender_ip = host_ip(1);
    arp.target_ip = host_ip(2);
    return packet::PacketBuilder()
        .ethernet(packet::mac_from_string("ff:ff:ff:ff:ff:ff"), host_mac(1))
        .arp(arp)
        .payload_size(18)
        .build();
}

packet::Packet label_stack_packet(int depth) {
    // ethernet(etherType=0x8847) + `depth` 32-bit labels + payload
    const std::size_t size = 14 + static_cast<std::size_t>(depth) * 4 + 32;
    packet::Packet pkt = packet::Packet::zeros(size);
    packet::EthernetHeader eth;
    eth.dst = host_mac(2);
    eth.src = host_mac(1);
    eth.ethertype = 0x8847;
    eth.write(pkt, 0);
    for (int i = 0; i < depth; ++i) {
        const std::size_t base = 14 + static_cast<std::size_t>(i) * 4;
        pkt.set_u(base * 8, 20, static_cast<std::uint64_t>(100 + i));  // label
        pkt.set_u(base * 8 + 20, 3, 0);                                // tc
        pkt.set_u(base * 8 + 23, 1, i == depth - 1 ? 1 : 0);           // bos
        pkt.set_u(base * 8 + 24, 8, 64);                               // ttl
    }
    return pkt;
}

std::shared_ptr<const p4::ir::Program> compile(std::string_view source,
                                               std::string name) {
    return std::shared_ptr<const p4::ir::Program>(
        p4::compile_source(source, std::move(name)));
}

control::Status add_l2_entry(control::RuntimeApi& rt, const packet::Mac& dst,
                             std::uint32_t port) {
    control::ConfigOp op;
    op.target = "dmac";
    op.entry.key_values = {
        util::Bitvec::from_bytes(std::span<const std::uint8_t>(dst.data(), 6), 48)};
    op.entry.action = "forward";
    op.entry.action_args = {util::Bitvec(9, port)};
    return rt.apply({&op, 1}).front();
}

control::Status add_acl_allow_udp(control::RuntimeApi& rt, std::uint16_t dst_port,
                                  std::uint32_t egress_port) {
    control::ConfigOp op;
    op.target = "acl";
    op.entry.key_values = {util::Bitvec(32, 0), util::Bitvec(32, 0),
                           util::Bitvec(8, packet::kIpProtoUdp),
                           util::Bitvec(16, dst_port)};
    op.entry.key_masks = {util::Bitvec(32, 0), util::Bitvec(32, 0),
                          util::Bitvec(8, 0xff), util::Bitvec(16, 0xffff)};
    op.entry.priority = 10;
    op.entry.action = "allow";
    op.entry.action_args = {util::Bitvec(9, egress_port)};
    return rt.apply({&op, 1}).front();
}

}  // namespace ndb::core::scenario
