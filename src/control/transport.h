// Faultable byte-stream transports + the resilient wire client.
//
// Three layers sit between RuntimeClient and the device once the control
// plane leaves the same address space:
//
//   WireChannel          sequence numbers, per-request timeouts, bounded
//                        exponential-backoff retry; surfaces link failures
//                        as first-class Status values ("wire: ...")
//   Transport            one endpoint of a byte-stream link: in-process
//                        LoopbackTransport (deterministic virtual time) or
//                        FdTransport over a pipe/socketpair
//   FaultInjector        seeded, deterministic per-frame fault decisions --
//                        drop, duplicate, reorder, truncate, bit-corrupt,
//                        delay-N-virtual-ticks -- parsed from a FaultPlan
//                        spec string
//
// The device side is ControlServer: it decodes request frames, executes
// them, and keeps a bounded seq->response cache so a retry of a
// non-idempotent op (ApplyConfigReq) is answered from cache instead of being
// executed twice -- exactly-once effects under at-least-once delivery.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "control/wire.h"
#include "util/random.h"

namespace ndb::control {

// --- fault plans --------------------------------------------------------------

// Per-frame fault probabilities, rolled from a seeded deterministic RNG so
// any faulty run replays exactly.  Parsed from a comma-separated spec:
//
//   "seed=7,drop=0.1,dup=0.05,reorder=0.1,truncate=0.02,corrupt=0.02,
//    delay=0.2,delay_ticks=3"
//
// "none" (or the empty string) is the clean plan.  parse() throws
// std::invalid_argument with a precise reason on junk.
struct FaultPlan {
    std::uint64_t seed = 1;
    double drop = 0.0;      // frame vanishes
    double duplicate = 0.0; // frame delivered twice
    double reorder = 0.0;   // frame held back one tick, overtaken by successors
    double truncate = 0.0;  // random-length prefix delivered
    double corrupt = 0.0;   // one random bit flipped
    double delay = 0.0;     // frame held back delay_ticks virtual ticks
    std::uint32_t delay_ticks = 2;

    bool enabled() const {
        return drop > 0 || duplicate > 0 || reorder > 0 || truncate > 0 ||
               corrupt > 0 || delay > 0;
    }

    static FaultPlan parse(const std::string& spec);
    std::string spec() const;
};

// Applies a FaultPlan to a stream of outbound frames.  Each send() makes
// the per-frame fault decisions; tick() advances virtual time and yields
// the byte chunks that are due for delivery (a truncated or corrupted
// frame is still delivered -- as garbage the receiving FrameReader must
// survive).
class FaultInjector {
public:
    FaultInjector() = default;
    explicit FaultInjector(const FaultPlan& plan, std::uint64_t seed_salt = 0);

    void send(std::vector<std::uint8_t> frame);

    // Advances one virtual tick; appends due byte chunks to `out`.
    void tick(std::vector<std::vector<std::uint8_t>>& out);

    std::size_t pending() const { return held_.size() + ready_.size(); }
    std::uint64_t faults() const { return faults_; }

private:
    struct Held {
        std::uint32_t ticks = 0;
        std::vector<std::uint8_t> bytes;
    };

    FaultPlan plan_;
    util::Rng rng_;
    std::vector<Held> held_;                     // delayed / reordered
    std::vector<std::vector<std::uint8_t>> ready_;  // due next tick
    std::uint64_t faults_ = 0;
};

// --- device-side endpoint -----------------------------------------------------

// Decodes control_request frames, executes them against the device runtime,
// and encodes the response frame.  The seq->response cache (bounded FIFO)
// makes retried non-idempotent requests exactly-once: a seq seen before is
// answered from cache without touching the device.
class ControlServer {
public:
    struct Stats {
        std::uint64_t requests = 0;      // frames executed against the device
        std::uint64_t dedup_hits = 0;    // retries answered from cache
        std::uint64_t decode_errors = 0; // checksum-valid frames with bad payloads
    };

    explicit ControlServer(RuntimeApi& device) : device_(&device) {}

    // Handles one well-formed frame; returns the encoded response frame.
    // Non-request frames and undecodable payloads yield a failure-Status
    // response (same seq), so the client sees a diagnostic, not a timeout.
    std::vector<std::uint8_t> handle(const wire::Frame& frame);

    const Stats& stats() const { return stats_; }

private:
    static constexpr std::size_t kDedupCacheEntries = 64;

    RuntimeApi* device_;
    std::deque<std::pair<std::uint64_t, std::vector<std::uint8_t>>> cache_;
    Stats stats_;
};

// --- transports ---------------------------------------------------------------

// One endpoint of a byte-stream link.
class Transport {
public:
    virtual ~Transport() = default;

    // Queues bytes toward the peer.  Callers send whole encoded frames, so
    // fault injection can treat each send() as one frame.
    virtual void send(std::span<const std::uint8_t> bytes) = 0;

    // Appends newly arrived bytes to `out`; returns whether any arrived.
    virtual bool receive(std::vector<std::uint8_t>& out) = 0;

    // Advances time: one virtual tick (loopback) or a short real-time poll
    // (fd transport).  Delayed frames move closer to delivery.
    virtual void tick() = 0;
};

// In-process transport: the peer is a ControlServer in the same address
// space, reached through two FaultInjector-mediated directions.  Time is
// virtual (ticks), so every fault schedule is deterministic and tests run
// at full speed.
class LoopbackTransport final : public Transport {
public:
    explicit LoopbackTransport(RuntimeApi& device) : server_(device) {}

    // Applies `plan` to both directions (direction-salted seeds, so the
    // request and response links fault independently but reproducibly).
    void set_fault_plan(const FaultPlan& plan);

    void send(std::span<const std::uint8_t> bytes) override;
    bool receive(std::vector<std::uint8_t>& out) override;
    void tick() override;

    const ControlServer::Stats& server_stats() const { return server_.stats(); }
    std::uint64_t faults_injected() const {
        return to_server_.faults() + to_client_.faults();
    }

private:
    ControlServer server_;
    FaultInjector to_server_;
    FaultInjector to_client_;
    wire::FrameReader server_reader_;
    std::vector<std::uint8_t> client_rx_;
};

// Transport over an OS file descriptor (socketpair/pipe), used by the
// campaign fabric for parent<->worker links.  Writes use MSG_NOSIGNAL so a
// dead peer surfaces as an error, not SIGPIPE; reads are non-blocking with
// a poll()-based tick.
class FdTransport final : public Transport {
public:
    // Takes ownership of `fd` (closed on destruction).
    explicit FdTransport(int fd);
    ~FdTransport() override;
    FdTransport(const FdTransport&) = delete;
    FdTransport& operator=(const FdTransport&) = delete;

    void send(std::span<const std::uint8_t> bytes) override;
    bool receive(std::vector<std::uint8_t>& out) override;
    void tick() override;  // polls the fd for up to 1ms

    // True until a write fails or the peer closes the stream.
    bool alive() const { return alive_; }
    int fd() const { return fd_; }
    void close();

private:
    int fd_ = -1;
    bool alive_ = true;
};

// --- resilient client channel -------------------------------------------------

// Retry/timeout knobs for WireChannel.  Timeouts (and the fixed backoff
// between tries, 1<<attempt ticks capped at 16) are measured in transport
// ticks (virtual for loopback, ~1ms polls for fd), so the same policy is
// deterministic in-process and sane cross-process.
struct RetryPolicy {
    std::uint32_t max_attempts = 4;       // total tries, including the first
    std::uint32_t timeout_ticks = 16;     // per-attempt response wait
};

// Client-side channel counters, surfaced in campaign reports.
struct ChannelStats {
    std::uint64_t requests = 0;      // transact() calls
    std::uint64_t frames_sent = 0;   // request frames emitted (incl. retries)
    std::uint64_t retries = 0;       // re-sends after a timed-out attempt
    std::uint64_t timeouts = 0;      // requests that exhausted every attempt
    std::uint64_t decode_errors = 0; // response frames that failed to decode
};

// Sends Requests as sequence-numbered wire frames over a Transport and
// waits for the matching response, retrying with bounded exponential
// backoff.  Retries reuse the original sequence number, so the server's
// dedup cache keeps non-idempotent ops exactly-once.  A request whose
// retry budget is exhausted returns Status::failure("wire: request ...
// timed out ..."), which the campaign engine treats as a management-plane
// observable.  A request whose encoded payload exceeds
// wire::kMaxPayloadBytes is never sent: it fails at once with a "wire:"
// Status naming its size and the cap.
class WireChannel {
public:
    explicit WireChannel(Transport& transport) : transport_(&transport) {}

    void set_retry_policy(const RetryPolicy& policy) { policy_ = policy; }

    Response transact(const Request& request);

    const ChannelStats& stats() const { return stats_; }

private:
    // Waits up to `ticks` for the response to `seq`; true on arrival.
    bool wait_for(std::uint64_t seq, std::uint32_t ticks, Response& out);

    Transport* transport_;
    RetryPolicy policy_;
    ChannelStats stats_;
    wire::FrameReader reader_;
    std::uint64_t next_seq_ = 0;
};

}  // namespace ndb::control
