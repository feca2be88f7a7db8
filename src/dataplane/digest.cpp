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

std::uint64_t hash_packet_state(const PacketState& state) {
    if (!state.layout_) PacketState::throw_bad_header();
    const std::vector<std::uint64_t>& valid = state.valid_;
    const std::uint64_t* image = state.image_.data();
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint64_t word : valid) h = fold(h, word);
    const auto& runs = state.layout_->digest;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto& run = runs[i];
        if (!run.metadata && !((valid[i / 64] >> (i % 64)) & 1)) continue;
        for (std::uint32_t k = 0; k < run.words; ++k) h = fold(h, image[run.word + k]);
    }
    return fmix64(h);
}

}  // namespace ndb::dataplane
