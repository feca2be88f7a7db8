// Telemetry metrics: a lock-free, per-thread-sharded registry of monotonic
// counters, gauges and log2-bucket latency histograms.
//
// Design contract (the whole subsystem is observe-only):
//
//   * recording never allocates and never blocks: each thread leases one
//     shard (a block of relaxed atomics) and only ever writes its own cells;
//   * when metrics are off (`metrics_on()` false, the default) the hot paths
//     cost exactly one relaxed load -- instrumented code must gate every
//     hook on it;
//   * timing is *sampled* (1/16 packets, 1/64 table lookups, per-thread
//     decimation) so the clock reads stay inside the bench overhead gate,
//     while counters stay exact;
//   * snapshot() merges shards in registration order under a lock, so the
//     merged totals are a deterministic commutative sum no matter how many
//     threads recorded;
//   * histograms are pure bucket-count arrays (no min/max cells), so
//     snapshot subtraction is well-defined -- that is what lets fabric
//     workers ship deltas home (see obs/telemetry.h).
//
// Nothing in here feeds back into campaign reports: those must stay
// byte-identical with telemetry on or off.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>

namespace ndb::obs {

// Wall-free monotonic clock (CLOCK_MONOTONIC), in nanoseconds.  The domain
// is system-wide, so fork()ed fabric workers share the parent's timeline.
std::uint64_t now_ns();

// Process-family epoch: captured on first use (Telemetry::set_enabled pins
// it before any fork), inherited by workers, never reset -- every trace
// timestamp is exported relative to it.
std::uint64_t epoch_ns();

// --- metric identities --------------------------------------------------------

enum class Counter : std::uint32_t {
    packets = 0,      // every Pipeline::process entry (exact)
    packets_sampled,  // the 1/16 subset that carried stage clocks
    lookups_exact,
    lookups_lpm,
    lookups_ternary,
    wire_requests,
    wire_retries,
    wire_timeouts,
    scenarios,
    divergences,
    rounds,
    concolic_injected,
    worker_spawns,
    worker_restarts,
    trace_events_dropped,
    register_overwrites,  // datapath writes replacing a different non-zero cell
    image_builds,  // Device::load calls that built for a different image
    count_,
};
inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::count_);
const char* counter_name(Counter c);

enum class Gauge : std::uint32_t {
    campaign_threads = 0,
    fabric_workers,
    count_,
};
inline constexpr std::size_t kNumGauges = static_cast<std::size_t>(Gauge::count_);
const char* gauge_name(Gauge g);

enum class Hist : std::uint32_t {
    // Per-stage pipeline latency.  Keep the four in stage order:
    // pipeline_hist() below indexes into them.
    parse_ns = 0,
    match_action_ns,
    deparse_ns,
    packet_ns,
    lookup_ns_exact,
    lookup_ns_lpm,
    lookup_ns_ternary,
    wire_rtt_ns,
    scenario_ns,
    stateful_touched_cells,  // per snapshot: extern cells touched since reset
    count_,
};
inline constexpr std::size_t kNumHists = static_cast<std::size_t>(Hist::count_);
const char* hist_name(Hist h);

// Stage index: 0=parse 1=match-action 2=deparse 3=whole packet.
inline Hist pipeline_hist(int stage) {
    return static_cast<Hist>(static_cast<int>(Hist::parse_ns) + stage);
}

// --- log2 histogram math ------------------------------------------------------

inline constexpr int kHistBuckets = 64;

// Bucket 0 holds exactly {0}; bucket b >= 1 holds [2^(b-1), 2^b), i.e. all
// values whose bit width is b, saturating into bucket 63.
inline int hist_bucket(std::uint64_t v) {
    const int width = static_cast<int>(std::bit_width(v));
    return width < kHistBuckets ? width : kHistBuckets - 1;
}

// Inclusive upper bound of a bucket (what percentile extraction reports).
inline std::uint64_t hist_bucket_upper(int bucket) {
    if (bucket <= 0) return 0;
    if (bucket >= kHistBuckets - 1) return ~0ull;
    return (1ull << bucket) - 1;
}

// One merged histogram: pure bucket counts, so add/subtract are exact.
struct HistogramData {
    std::array<std::uint64_t, kHistBuckets> buckets{};

    std::uint64_t count() const;
    // Bucket upper bound at percentile p (in [0,100]); 0 when empty.
    std::uint64_t percentile(double p) const;
    void add(const HistogramData& other);
    void subtract(const HistogramData& other);
    bool operator==(const HistogramData&) const = default;
};

// --- merged snapshot ----------------------------------------------------------

struct MetricsSnapshot {
    std::array<std::uint64_t, kNumCounters> counters{};
    std::array<std::int64_t, kNumGauges> gauges{};
    std::array<HistogramData, kNumHists> hists{};

    void add(const MetricsSnapshot& other);
    void subtract(const MetricsSnapshot& other);
    bool empty() const;
    // {"counters": {...}, "gauges": {...}, "histograms": {...}} with
    // p50/p90/p99 per histogram and sparse [bucket, count] pairs.
    std::string to_json(int indent = 0) const;
    bool operator==(const MetricsSnapshot&) const = default;
};

// --- registry -----------------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_metrics_on;
}  // namespace detail

// The one hot-path gate.  Everything else in this header is off-path.
inline bool metrics_on() {
    return detail::g_metrics_on.load(std::memory_order_relaxed);
}

class Metrics {
public:
    // Leaked singleton: shards outlive every recording thread, including
    // main-thread thread_local destructors.
    static Metrics& instance();

    void set_enabled(bool on);

    // Deterministic merged view: shards summed in registration order.
    MetricsSnapshot snapshot();

    // Zeroes every shard and gauge (snapshot isolation for benches/tests).
    void reset();

    void gauge_set(Gauge g, std::int64_t value);

private:
    Metrics() = default;
};

// Recording API -- call only when metrics_on().  Thread-safe, allocation
// free after a thread's first call (which leases its shard).
void count(Counter c, std::uint64_t n = 1);
void record(Hist h, std::uint64_t value);
// Per-thread decimation: true on every 16th packet / 64th lookup.
bool sample_packet();
bool sample_lookup();

}  // namespace ndb::obs
