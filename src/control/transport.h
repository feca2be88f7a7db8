// Faultable framed transports + the resilient wire client.
//
// Three layers sit between RuntimeClient and the device once the control
// plane leaves the same address space:
//
//   WireChannel          sequence numbers, per-request timeouts, bounded
//                        exponential-backoff retry; surfaces link failures
//                        as first-class Status values ("wire: ...")
//   Transport            one endpoint of a framed link: in-process
//                        LoopbackTransport (deterministic virtual time) or
//                        FdTransport over a pipe/socketpair
//   FrameLink            the link end every transport is built from:
//                        outbound frames take seeded, deterministic
//                        per-frame fault decisions -- drop, duplicate,
//                        reorder, truncate, bit-corrupt, delay-N-virtual-
//                        ticks -- from a FaultPlan spec string, and inbound
//                        bytes pass a resynchronizing wire::FrameReader
//
// The device side is ControlServer: it executes request frames and keeps a
// bounded seq->response cache so a retry of a non-idempotent op
// (ApplyConfigReq) is answered from cache instead of being executed twice
// -- exactly-once effects under at-least-once delivery.  The campaign
// fabric's parent<->worker sockets are FdTransports too, so every framed
// stream in the system faults and resynchronizes the same way.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
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

// One end of a framed byte stream.  Outbound, send() encodes a frame and
// makes its per-frame fault decisions under the end's FaultPlan, and tick()
// advances one virtual tick and yields the bytes due for delivery (a
// truncated or corrupted frame is still delivered -- as garbage the peer's
// reader must survive).  Inbound, feed() takes the bytes that arrived and
// next() extracts the well-formed frames among them.
class FrameLink {
public:
    FrameLink() = default;  // the clean plan
    // The fault RNG is seeded with plan.seed ^ seed_salt * 0x9e3779b97f4a7c15,
    // so ends that share a plan fault independently but reproducibly.
    FrameLink(const FaultPlan& plan, std::uint64_t seed_salt);

    void send(const wire::Frame& frame);

    // Advances one virtual tick; appends the bytes now due to `out`: the
    // frames sent since the last tick, then the held frames whose wait is
    // over, in the order they were sent.
    void tick(std::vector<std::uint8_t>& out);

    void feed(std::span<const std::uint8_t> bytes) { reader_.feed(bytes); }
    bool next(wire::Frame& out) { return reader_.next(out); }

    std::uint64_t faults() const { return faults_; }
    const wire::FrameReader::Stats& received() const { return reader_.stats(); }

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
    wire::FrameReader reader_;
};

// --- device-side endpoint -----------------------------------------------------

// Decodes control_request frames, executes them against the device runtime,
// and builds the response frame.  The seq->response cache (bounded FIFO)
// makes retried non-idempotent requests exactly-once: a seq seen before is
// answered from cache without touching the device.
class ControlServer {
public:
    explicit ControlServer(RuntimeApi& device) : device_(&device) {}

    // Handles one well-formed frame; returns the response frame.
    // Non-request frames and undecodable payloads yield a failure-Status
    // response (same seq), so the client sees a diagnostic, not a timeout.
    wire::Frame handle(const wire::Frame& frame);

    // Retries answered from cache.
    std::uint64_t dedup_hits() const { return dedup_hits_; }

private:
    static constexpr std::size_t kDedupCacheEntries = 64;

    RuntimeApi* device_;
    std::deque<wire::Frame> cache_;  // responses, matched by seq
    std::uint64_t dedup_hits_ = 0;
};

// --- transports ---------------------------------------------------------------

// One endpoint of a framed link.
class Transport {
public:
    virtual ~Transport() = default;

    // Queues one frame toward the peer, through the endpoint's fault plan.
    virtual void send(const wire::Frame& frame) = 0;

    // Extracts the next well-formed frame that has arrived; false when none
    // has (tick and try again).
    virtual bool next(wire::Frame& out) = 0;

    // Advances time: one virtual tick (loopback) or a short real-time poll
    // (fd transport).  Queued frames leave, delayed frames move closer to
    // delivery, and arrived bytes are taken in.
    virtual void tick() = 0;
};

// In-process transport: the peer is a ControlServer in the same address
// space.  A client end carries requests to a device end, which answers
// through its own end, each under the fault plan.  Time is virtual
// (ticks), so every fault schedule is deterministic and tests run at full
// speed.
class LoopbackTransport final : public Transport {
public:
    explicit LoopbackTransport(RuntimeApi& device) : server_(device) {}

    // Applies `plan` to both directions (direction-salted seeds, so the
    // request and response links fault independently but reproducibly).
    // Call before any traffic: it restarts both ends.
    void set_fault_plan(const FaultPlan& plan);

    void send(const wire::Frame& frame) override { client_.send(frame); }
    bool next(wire::Frame& out) override { return client_.next(out); }
    void tick() override;

    // Adds the link's share of the traffic counters to `stats`: fault
    // decisions in both directions and retries answered from the server's
    // dedup cache.  WireChannel counts the rest.
    void count(ChannelStats& stats) const;

private:
    ControlServer server_;
    FrameLink client_;  // sends requests, receives responses
    FrameLink device_;  // receives requests, sends responses
};

// Transport over an OS file descriptor (socketpair/pipe), used by the
// campaign fabric for parent<->worker links.  Frames leave through the
// end's FrameLink, so its fault plan applies; tick() writes the frames due,
// polls the fd for up to 1ms and reads what arrived.  Writes use
// MSG_NOSIGNAL so a dead peer surfaces as an error, not SIGPIPE; reads are
// non-blocking.
class FdTransport final : public Transport {
public:
    // Takes ownership of `fd` (closed on destruction).  The end's FrameLink
    // is built from `plan` and `seed_salt`; the default plan is clean.
    explicit FdTransport(int fd, const FaultPlan& plan = {},
                         std::uint64_t seed_salt = 0);
    ~FdTransport() override;
    FdTransport(const FdTransport&) = delete;
    FdTransport& operator=(const FdTransport&) = delete;

    void send(const wire::Frame& frame) override { link_.send(frame); }
    bool next(wire::Frame& out) override { return link_.next(out); }
    void tick() override;

    // Writes the frames the link has due now, without polling: one tick of
    // the link's clock.
    void flush();
    // Writes `frame` now, past the fault plan: teardown housekeeping, not
    // the experiment.
    void send_unfaulted(const wire::Frame& frame);

    // True until a write fails or the peer closes the stream.
    bool alive() const { return alive_; }
    void close();

    const FrameLink& link() const { return link_; }

private:
    void write_all(std::span<const std::uint8_t> bytes);

    int fd_ = -1;
    bool alive_ = true;
    FrameLink link_;
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

    // The client side's counters: requests through decode_errors.
    const ChannelStats& stats() const { return stats_; }

private:
    // Waits up to `ticks` for the response to `seq`; true on arrival.
    bool wait_for(std::uint64_t seq, std::uint32_t ticks, Response& out);

    Transport* transport_;
    RetryPolicy policy_;
    ChannelStats stats_;
    std::uint64_t next_seq_ = 0;
};

}  // namespace ndb::control
