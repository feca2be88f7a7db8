// Streaming latency statistics used by the checker and the performance
// use-case.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace ndb::util {

// Log-scaled latency histogram: constant memory, approximate percentiles.
// Buckets are [2^k, 2^{k+1}) over a fixed dynamic range, which is the usual
// trade for a line-rate hardware checker (cannot store every sample).
class LatencyHistogram {
public:
    // Values below 1 land in bucket 0; values above ~2^62 saturate.
    void add(std::uint64_t value);
    std::uint64_t count() const { return total_; }
    // Approximate percentile (p in [0,100]); returns bucket upper bound.
    std::uint64_t percentile(double p) const;
    std::uint64_t max_seen() const { return max_; }
    std::uint64_t min_seen() const { return total_ ? min_ : 0; }
    std::string to_string() const;

private:
    static constexpr int kBuckets = 63;
    std::uint64_t buckets_[kBuckets] = {};
    std::uint64_t total_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

}  // namespace ndb::util
