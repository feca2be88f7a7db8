#include "dataplane/digest.h"

#include <bit>

namespace ndb::dataplane {

namespace {

inline std::uint64_t fold(std::uint64_t h, std::uint64_t word) {
    return std::rotl((h ^ word) * 0xc2b2ae3d27d4eb4full, 31);
}

inline std::uint64_t fmix64(std::uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

}  // namespace

std::uint64_t hash_packet_state(const p4::ir::Program& prog,
                                const PacketState& state) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint64_t word : state.valid_words()) h = fold(h, word);
    for (std::size_t i = 0; i < prog.headers.size(); ++i) {
        const int header = static_cast<int>(i);
        if (!prog.headers[i].is_metadata && !state.header_valid(header)) continue;
        for (const std::uint64_t word : state.header_words(header)) h = fold(h, word);
    }
    return fmix64(h);
}

}  // namespace ndb::dataplane
