// Streaming per-stage state digests.
//
// hash_packet_state() hashes a live PacketState in place, word by word: the
// validity bitmap first, then the wire image, padded with zeros to whole
// 64-bit words, of every valid header and every metadata header, in header
// order.  The words come from a per-layout table built with the state's
// layout, so a digest never walks the program.  Each 64-bit word costs one
// multiply, `h = rotl((h ^ w) * K, 31)`, and one murmur3 fmix64 finalizes
// the sum.  Pad bits are always zero, so
// two states digest equal when their validity and field values agree (the
// comparison FaultLocalizer makes), and a difference confined to one word
// always changes the digest: every fold step is a bijection of `h`.
//
// Timing (cycles) is deliberately excluded: quirked paths may legitimately
// cost different cycle counts without being behaviourally wrong.
#pragma once

#include <cstdint>

#include "dataplane/state.h"

namespace ndb::dataplane {

// Digest value reported for a stage the packet never reached.
inline constexpr std::uint64_t kStageNotReachedHash = 0x9e3779b97f4a7c15ull;

// Throws std::out_of_range when `state` was never reset for a program.
std::uint64_t hash_packet_state(const PacketState& state);

}  // namespace ndb::dataplane
