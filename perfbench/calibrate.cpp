#include "calibrate.h"

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

namespace {

// Keeps the kernels' results observable so the compiler cannot drop them.
volatile std::uint64_t g_sink = 0;

constexpr std::size_t kMemWords = std::size_t{1} << 20;  // 8 MiB: 4x the L2

std::uint64_t xorshift(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

std::uint64_t mix_kernel() {
    constexpr int kRounds = 100000;
    constexpr std::uint64_t kKeys = 4096;
    constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    table.reserve(2 * kKeys);
    for (std::uint64_t k = 0; k < kKeys; ++k) table.emplace(k * kGolden, k);
    std::uint64_t x = 7;
    std::uint64_t acc = 0;
    for (int round = 0; round < kRounds; ++round) {
        const auto it = table.find((xorshift(x) % (2 * kKeys)) * kGolden);
        acc += it == table.end() ? 1 : it->second;
        std::vector<std::uint8_t> pkt(64 + (acc & 63));
        pkt[acc % pkt.size()] = 1;
        acc += pkt[3];
    }
    return acc;
}

const std::vector<std::uint64_t>& mem_buffer() {
    static const std::vector<std::uint64_t> buffer = [] {
        std::vector<std::uint64_t> b(kMemWords);
        std::uint64_t x = 11;
        for (auto& w : b) w = xorshift(x);
        return b;
    }();
    return buffer;
}

std::uint64_t mem_kernel() {
    constexpr int kLoads = 1600000;
    const std::vector<std::uint64_t>& buffer = mem_buffer();
    std::uint64_t x = 5;
    std::uint64_t acc = 0;
    for (int i = 0; i < kLoads; ++i) acc += buffer[xorshift(x) % kMemWords];
    return acc;
}

template <typename Fn>
double seconds(Fn&& fn) {
    const std::uint64_t t0 = ndb::obs::now_ns();
    g_sink = g_sink + fn();
    return static_cast<double>(ndb::obs::now_ns() - t0) / 1e9;
}

}  // namespace

double probe_slowdown() {
    mem_buffer();  // built outside the timed region
    const double mix = seconds(mix_kernel) / kNominalMixSeconds;
    const double mem = seconds(mem_kernel) / kNominalMemSeconds;
    return std::pow(mix * mem, kSlowdownExponent);
}

std::size_t probe_resident_bytes() { return kMemWords * sizeof(std::uint64_t); }

}  // namespace perfbench
