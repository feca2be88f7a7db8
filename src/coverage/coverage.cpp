#include "coverage/coverage.h"

#include <bit>

namespace ndb::coverage {

namespace {

// Calls fn(slot) for every lit slot, in slot order.
template <typename Bitmap, typename Fn>
void for_each_lit(const Bitmap& lit, Fn&& fn) {
    for (std::size_t w = 0; w < lit.size(); ++w) {
        for (std::uint64_t word = lit[w]; word != 0; word &= word - 1) {
            fn(static_cast<std::uint32_t>(w * 64 + std::countr_zero(word)));
        }
    }
}

}  // namespace

std::size_t CoverageMap::edges_covered() const {
    std::size_t n = 0;
    for (const std::uint32_t c : counts_) {
        if (c != 0) ++n;
    }
    return n;
}

std::uint64_t CoverageMap::total_hits() const {
    std::uint64_t n = 0;
    for (const std::uint32_t c : counts_) n += c;
    return n;
}

std::vector<SlotHits> CoverageMap::hits() const {
    // Counted by walking the set bits: std::popcount is a libgcc call per
    // word on a baseline x86-64 target, and most words are zero.
    std::size_t lit = 0;
    for_each_lit(lit_, [&](std::uint32_t) { ++lit; });
    std::vector<SlotHits> out;
    out.reserve(lit);
    for_each_lit(lit_, [&](std::uint32_t slot) {
        out.push_back({slot, counts_[slot]});
    });
    return out;
}

void CoverageMap::take_hits_into(std::vector<SlotHits>& out) {
    out.clear();
    for_each_lit(lit_, [&](std::uint32_t slot) {
        out.push_back({slot, counts_[slot]});
        counts_[slot] = 0;
    });
    lit_.fill(0);
}

void CoverageMap::clear() {
    for_each_lit(lit_, [&](std::uint32_t slot) { counts_[slot] = 0; });
    lit_.fill(0);
}

std::size_t CoverageMap::merge_new_from(std::span<const SlotHits> fresh) {
    std::size_t new_slots = 0;
    for (const SlotHits& h : fresh) {
        if (h.count == 0) continue;
        const std::uint32_t slot = h.slot & (kSlots - 1);
        if (counts_[slot] == 0) ++new_slots;
        counts_[slot] += h.count;
        lit_[slot / 64] |= 1ull << (slot % 64);
    }
    return new_slots;
}

}  // namespace ndb::coverage
