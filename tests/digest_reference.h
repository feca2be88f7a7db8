// The stage-digest algorithm of dataplane/digest.h, restated over per-field
// values for tests: each hashed header's wire image is rebuilt from its
// field values with Packet::deposit_bits, zero-padded to whole 64-bit words
// and folded word by word after the validity bitmap.  `valid(h)` reports
// header h's validity and `field(h, f)` the value of its field f.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "p4/ir.h"
#include "packet/packet.h"
#include "util/bitvec.h"

namespace ndb::testutil {

inline std::uint64_t digest_fold(std::uint64_t h, std::uint64_t word) {
    return std::rotl((h ^ word) * 0xc2b2ae3d27d4eb4full, 31);
}

inline std::uint64_t digest_fmix64(std::uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

template <typename ValidFn, typename FieldFn>
std::uint64_t reference_digest(const p4::ir::Program& prog, ValidFn valid,
                               FieldFn field) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::vector<std::uint64_t> mask((prog.headers.size() + 63) / 64, 0);
    for (std::size_t i = 0; i < prog.headers.size(); ++i) {
        if (valid(static_cast<int>(i))) mask[i / 64] |= 1ull << (i % 64);
    }
    for (const std::uint64_t word : mask) h = digest_fold(h, word);
    for (std::size_t i = 0; i < prog.headers.size(); ++i) {
        const auto& hdr = prog.headers[i];
        const int header = static_cast<int>(i);
        if (!valid(header) && !hdr.is_metadata) continue;
        packet::Packet image = packet::Packet::zeros(
            static_cast<std::size_t>((hdr.size_bits + 63) / 64 * 8));
        for (std::size_t f = 0; f < hdr.fields.size(); ++f) {
            image.deposit_bits(static_cast<std::size_t>(hdr.fields[f].offset),
                               field(header, static_cast<int>(f)));
        }
        for (std::size_t at = 0; at < image.size(); at += 8) {
            std::uint64_t word;
            std::memcpy(&word, image.data().data() + at, sizeof word);
            h = digest_fold(h, word);
        }
    }
    return digest_fmix64(h);
}

}  // namespace ndb::testutil
