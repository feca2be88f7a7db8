#include "util/stats.h"

#include <algorithm>
#include <cstdio>

namespace ndb::util {

namespace {
int bucket_index(std::uint64_t value) {
    if (value == 0) return 0;
    const int bits = 64 - __builtin_clzll(value);
    return std::min(bits - 1, 62);
}
}  // namespace

void LatencyHistogram::add(std::uint64_t value) {
    ++buckets_[bucket_index(value)];
    ++total_;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

std::uint64_t LatencyHistogram::percentile(double p) const {
    if (total_ == 0) return 0;
    const double target = p / 100.0 * static_cast<double>(total_);
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
        seen += buckets_[i];
        if (static_cast<double>(seen) >= target) {
            return i >= 63 ? max_ : (1ull << (i + 1)) - 1;
        }
    }
    return max_;
}

std::string LatencyHistogram::to_string() const {
    std::string s;
    char line[128];
    for (int i = 0; i < kBuckets; ++i) {
        if (buckets_[i] == 0) continue;
        std::snprintf(line, sizeof line, "[%llu, %llu): %llu\n",
                      static_cast<unsigned long long>(i ? 1ull << i : 0),
                      static_cast<unsigned long long>(1ull << (i + 1)),
                      static_cast<unsigned long long>(buckets_[i]));
        s += line;
    }
    return s;
}

}  // namespace ndb::util
