// Coverage-guided campaign feedback: the edge map.
//
// An AFL-style fixed-size coverage map (greybox fuzzing feedback in the
// FP4 mold, arXiv:2207.13147): every interesting execution event in the
// data plane -- a parser state transition, a table hit or miss, an action
// invocation, a taken/not-taken branch edge -- hashes to one of kSlots
// counters.  The map is a plain array, so recording a hit is one masked
// index, one increment and one OR into a bitmap of lit slots:
// allocation-free, branch-light, and cheap enough to leave compiled into
// the hot path behind a null-pointer check (coverage off = one
// predictable-untaken branch per site).
//
// A run lights a few dozen of the 4096 slots, so the campaign never
// copies or scans whole maps per scenario: each worker records into one
// map, hands the lit (slot, count) pairs to the scenario's outcome with
// take_hits_into(), and the round barrier folds those lists into the
// global map with merge_new_from().
//
// Slot ids are a pure function of the site kind and its operands, so the
// same program exercising the same behaviour fills the same slots on every
// run, every thread count, and every machine -- the determinism the
// campaign report's byte-identical contract needs.  Collisions between
// distinct sites are possible (as in AFL) and harmless: the scheduler only
// consumes coverage *deltas*, and a collision merely under-counts novelty.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ndb::coverage {

// Instrumentation site kinds; the slot hash folds the kind in so that e.g.
// table #3 and action #3 never alias by construction of the operands alone.
enum class Site : std::uint64_t {
    parser_edge = 1,    // a = from-state, b = to-state (kAccept/kReject incl.)
    parser_finish = 2,  // a = final state, b = verdict ordinal
    table = 3,          // a = table id, b = hit (1) / miss (0)
    action = 4,         // a = action id
    branch = 5,         // a = static branch ordinal, b = taken (1) / not (0)
};

// One lit slot and its hit count.
struct SlotHits {
    std::uint32_t slot = 0;
    std::uint32_t count = 0;

    bool operator==(const SlotHits&) const = default;
};

class CoverageMap {
public:
    // Power of two: slot masking is a single AND.
    static constexpr std::size_t kSlots = 4096;

    // Deterministic slot for a site event (SplitMix64-style finalizer).
    static std::uint32_t slot(Site site, std::uint64_t a, std::uint64_t b = 0) {
        std::uint64_t x = (static_cast<std::uint64_t>(site) << 56) ^
                          (a * 0x9e3779b97f4a7c15ull) ^
                          (b * 0xff51afd7ed558ccdull);
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebull;
        x ^= x >> 31;
        return static_cast<std::uint32_t>(x & (kSlots - 1));
    }

    void hit(std::uint32_t slot_id) {
        slot_id &= kSlots - 1;
        ++counts_[slot_id];
        lit_[slot_id / 64] |= 1ull << (slot_id % 64);
    }
    void record(Site site, std::uint64_t a, std::uint64_t b = 0) {
        hit(slot(site, a, b));
    }

    std::uint32_t count(std::size_t slot_id) const {
        return counts_[slot_id & (kSlots - 1)];
    }

    // Number of distinct slots ever hit ("edges covered").
    std::size_t edges_covered() const;

    std::uint64_t total_hits() const;

    // The lit slots with their counts, in slot order.
    std::vector<SlotHits> hits() const;

    // Writes hits() into `out` (cleared first; its capacity is kept), then
    // clears the map by zeroing only the lit slots.
    void take_hits_into(std::vector<SlotHits>& out);

    // Folds `fresh` into this accumulated map and returns how many of its
    // slots were previously unseen here -- the scheduler's coverage delta.
    std::size_t merge_new_from(std::span<const SlotHits> fresh);

    // Zeroes the lit slots only: the cost follows what was recorded.
    void clear();

    bool operator==(const CoverageMap&) const = default;

private:
    std::array<std::uint32_t, kSlots> counts_{};
    // Bit s set iff counts_[s] != 0.
    std::array<std::uint64_t, kSlots / 64> lit_{};
};

}  // namespace ndb::coverage
