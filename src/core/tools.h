// Shared scenario toolkit for use-case drivers, examples and benchmarks:
// canonical packets, canonical table programming, and small helpers that
// keep the experiment code readable.
#pragma once

#include <memory>
#include <string>

#include "control/runtime.h"
#include "core/testspec.h"
#include "p4/ir.h"
#include "packet/protocols.h"
#include "target/device.h"

namespace ndb::core::scenario {

// Canonical test endpoints.
packet::Mac host_mac(int n);           // 02:00:00:00:00:0n
std::uint32_t host_ip(int n);          // 10.0.0.n

// A UDP/IPv4 packet from host 1 to host 2 with `payload` bytes.
packet::Packet ipv4_udp_packet(std::size_t payload = 64, std::uint8_t ttl = 64);

// A broadcast ARP request (the paper's "packet that must be rejected").
packet::Packet arp_packet();

// An 8-deep label-stack packet for the deep_parser program (bottom-of-stack
// set on the last label).
packet::Packet label_stack_packet(int depth = 8);

// Compiled copies of the sample programs (cached per call site).
std::shared_ptr<const p4::ir::Program> compile(std::string_view source,
                                               std::string name);

// Canonical entries.
control::Status add_l2_entry(control::RuntimeApi& rt, const packet::Mac& dst,
                             std::uint32_t port);
control::Status add_acl_allow_udp(control::RuntimeApi& rt, std::uint16_t dst_port,
                                  std::uint32_t egress_port);

// Bit offsets of well-known IPv4 fields in an Ethernet+IPv4 frame.
inline constexpr std::size_t kIpv4TtlBit = (14 + 8) * 8;
inline constexpr std::size_t kIpv4ChecksumBit = (14 + 10) * 8;
inline constexpr std::size_t kIpv4DstBit = (14 + 16) * 8;

}  // namespace ndb::core::scenario
