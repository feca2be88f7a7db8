#include "control/transport.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace ndb::control {

// --- fault plans --------------------------------------------------------------

FaultPlan FaultPlan::parse(const std::string& spec) {
    FaultPlan plan;
    const std::string_view text = util::trim(spec);
    if (text.empty() || text == "none") return plan;
    for (const std::string& field : util::split(text, ',')) {
        const std::string_view entry = util::trim(field);
        if (entry.empty()) continue;
        const std::size_t eq = entry.find('=');
        if (eq == std::string_view::npos) {
            throw std::invalid_argument(util::format(
                "fault plan: '%.*s' is not key=value",
                static_cast<int>(entry.size()), entry.data()));
        }
        const std::string key(util::trim(entry.substr(0, eq)));
        const std::string value(util::trim(entry.substr(eq + 1)));
        if (key == "seed") {
            if (!util::parse_u64(value, plan.seed)) {
                throw std::invalid_argument(
                    util::format("fault plan: bad seed '%s'", value.c_str()));
            }
            continue;
        }
        if (key == "delay_ticks") {
            std::uint64_t ticks = 0;
            if (!util::parse_u64(value, ticks) || ticks == 0 || ticks > 1024) {
                throw std::invalid_argument(util::format(
                    "fault plan: delay_ticks '%s' outside [1, 1024]",
                    value.c_str()));
            }
            plan.delay_ticks = static_cast<std::uint32_t>(ticks);
            continue;
        }
        double* slot = nullptr;
        if (key == "drop") slot = &plan.drop;
        else if (key == "dup" || key == "duplicate") slot = &plan.duplicate;
        else if (key == "reorder") slot = &plan.reorder;
        else if (key == "truncate") slot = &plan.truncate;
        else if (key == "corrupt") slot = &plan.corrupt;
        else if (key == "delay") slot = &plan.delay;
        if (slot == nullptr) {
            throw std::invalid_argument(
                util::format("fault plan: unknown key '%s'", key.c_str()));
        }
        double p = 0.0;
        if (!util::parse_double(value, p) || p < 0.0 || p > 1.0) {
            throw std::invalid_argument(util::format(
                "fault plan: %s probability '%s' outside [0, 1]", key.c_str(),
                value.c_str()));
        }
        *slot = p;
    }
    return plan;
}

std::string FaultPlan::spec() const {
    if (!enabled()) return "none";
    return util::format(
        "seed=%llu,drop=%g,dup=%g,reorder=%g,truncate=%g,corrupt=%g,"
        "delay=%g,delay_ticks=%u",
        static_cast<unsigned long long>(seed), drop, duplicate, reorder,
        truncate, corrupt, delay, delay_ticks);
}

// --- frame link ---------------------------------------------------------------

FrameLink::FrameLink(const FaultPlan& plan, std::uint64_t seed_salt)
    : plan_(plan), rng_(plan.seed ^ seed_salt * 0x9e3779b97f4a7c15ull) {}

void FrameLink::send(const wire::Frame& frame) {
    std::vector<std::uint8_t> bytes = wire::encode_frame(frame);
    if (!plan_.enabled()) {
        ready_.push_back(std::move(bytes));
        return;
    }
    if (rng_.next_bool(plan_.drop)) {
        ++faults_;
        return;
    }
    if (rng_.next_bool(plan_.truncate) && bytes.size() > 1) {
        bytes.resize(1 + rng_.next_below(bytes.size() - 1));
        ++faults_;
    }
    if (rng_.next_bool(plan_.corrupt) && !bytes.empty()) {
        const std::uint64_t bit = rng_.next_below(bytes.size() * 8);
        bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        ++faults_;
    }
    const bool dup = rng_.next_bool(plan_.duplicate);
    if (dup) ++faults_;
    std::uint32_t hold = 0;
    if (rng_.next_bool(plan_.reorder)) {
        hold = 1;  // overtaken by anything sent before the next tick
        ++faults_;
    } else if (rng_.next_bool(plan_.delay)) {
        hold = plan_.delay_ticks;
        ++faults_;
    }
    std::vector<std::uint8_t> copy;
    if (dup) copy = bytes;
    if (hold > 0) {
        held_.push_back({hold, std::move(bytes)});
        if (dup) held_.push_back({hold + 1, std::move(copy)});
    } else {
        ready_.push_back(std::move(bytes));
        if (dup) ready_.push_back(std::move(copy));
    }
}

void FrameLink::tick(std::vector<std::uint8_t>& out) {
    for (const auto& bytes : ready_) out.insert(out.end(), bytes.begin(), bytes.end());
    ready_.clear();
    std::vector<Held> still;
    still.reserve(held_.size());
    for (auto& held : held_) {
        if (held.ticks <= 1) {
            out.insert(out.end(), held.bytes.begin(), held.bytes.end());
        } else {
            --held.ticks;
            still.push_back(std::move(held));
        }
    }
    held_ = std::move(still);
}

// --- device-side endpoint -----------------------------------------------------

wire::Frame ControlServer::handle(const wire::Frame& frame) {
    wire::Frame reply;
    reply.kind = wire::FrameKind::control_response;
    reply.seq = frame.seq;

    if (frame.kind != wire::FrameKind::control_request) {
        Response resp;
        resp.status = Status::failure(
            util::format("wire: unexpected %s frame on the control link",
                         wire::frame_kind_name(frame.kind)));
        reply.payload = wire::encode_response(resp);
        return reply;
    }

    // A retried request carries its original seq: answer from cache so the
    // device never executes a non-idempotent op twice.
    for (const wire::Frame& cached : cache_) {
        if (cached.seq == frame.seq) {
            ++dedup_hits_;
            return cached;
        }
    }

    Request request;
    Response resp;
    if (const wire::Decode d = wire::decode_request(frame.payload, request); !d) {
        resp.status = Status::failure("wire: " + d.reason);
    } else {
        resp = dispatch(*device_, request);
    }
    reply.payload = wire::encode_response(resp);
    cache_.push_back(reply);
    if (cache_.size() > kDedupCacheEntries) cache_.pop_front();
    return reply;
}

// --- loopback transport -------------------------------------------------------

void LoopbackTransport::set_fault_plan(const FaultPlan& plan) {
    // Direction-salted seeds: the two links fault independently, yet the
    // whole schedule replays from the one plan seed.
    client_ = FrameLink(plan, util::fnv1a_64("ndb.wire.c2s"));
    device_ = FrameLink(plan, util::fnv1a_64("ndb.wire.s2c"));
}

void LoopbackTransport::tick() {
    std::vector<std::uint8_t> due;
    client_.tick(due);
    device_.feed(due);
    wire::Frame frame;
    while (device_.next(frame)) device_.send(server_.handle(frame));
    due.clear();
    device_.tick(due);
    client_.feed(due);
}

void LoopbackTransport::count(ChannelStats& stats) const {
    stats.faults_injected += client_.faults() + device_.faults();
    stats.dedup_hits += server_.dedup_hits();
}

// --- fd transport -------------------------------------------------------------

FdTransport::FdTransport(int fd, const FaultPlan& plan, std::uint64_t seed_salt)
    : fd_(fd), link_(plan, seed_salt) {
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

FdTransport::~FdTransport() { close(); }

void FdTransport::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    alive_ = false;
}

void FdTransport::write_all(std::span<const std::uint8_t> bytes) {
    std::size_t off = 0;
    while (alive_ && off < bytes.size()) {
        // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not SIGPIPE.
        ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK) {
            n = ::write(fd_, bytes.data() + off, bytes.size() - off);
        }
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            struct pollfd pfd{fd_, POLLOUT, 0};
            ::poll(&pfd, 1, 50);
            continue;
        }
        alive_ = false;  // EPIPE, ECONNRESET, ...
    }
}

void FdTransport::flush() {
    std::vector<std::uint8_t> due;
    link_.tick(due);
    write_all(due);
}

void FdTransport::send_unfaulted(const wire::Frame& frame) {
    write_all(wire::encode_frame(frame));
}

void FdTransport::tick() {
    flush();
    if (fd_ < 0) return;
    struct pollfd pfd{fd_, POLLIN, 0};
    ::poll(&pfd, 1, 1);
    std::uint8_t buf[4096];
    while (fd_ >= 0) {
        const ssize_t n = ::read(fd_, buf, sizeof buf);
        if (n > 0) {
            link_.feed(std::span(buf, static_cast<std::size_t>(n)));
            continue;
        }
        if (n == 0) {  // orderly close by the peer
            alive_ = false;
            break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        alive_ = false;
        break;
    }
}

// --- wire channel -------------------------------------------------------------

bool WireChannel::wait_for(std::uint64_t seq, std::uint32_t ticks,
                           Response& out) {
    for (std::uint32_t t = 0; t < ticks; ++t) {
        transport_->tick();
        wire::Frame frame;
        while (transport_->next(frame)) {
            if (frame.kind != wire::FrameKind::control_response ||
                frame.seq != seq) {
                continue;  // stale response from an abandoned attempt
            }
            Response resp;
            if (const wire::Decode d = wire::decode_response(frame.payload, resp);
                !d) {
                ++stats_.decode_errors;
                out = Response{};
                out.status = Status::failure("wire: " + d.reason);
                return true;
            }
            out = std::move(resp);
            return true;
        }
    }
    return false;
}

namespace {

// Backoff between a timed-out attempt and the next: kBackoffBaseTicks <<
// attempt, capped at kBackoffCapTicks.
constexpr std::uint64_t kBackoffBaseTicks = 1;
constexpr std::uint64_t kBackoffCapTicks = 16;

}  // namespace

Response WireChannel::transact(const Request& request) {
    ++stats_.requests;
    // Telemetry shadows ChannelStats (which feed the deterministic report);
    // the RAII guard times the whole transact, retries and backoff included.
    struct RttTimer {
        bool on;
        std::uint64_t t0;
        ~RttTimer() {
            if (on) obs::record(obs::Hist::wire_rtt_ns, obs::now_ns() - t0);
        }
    } rtt{obs::metrics_on(), obs::metrics_on() ? obs::now_ns() : 0};
    if (rtt.on) obs::count(obs::Counter::wire_requests);
    wire::Frame frame;
    frame.kind = wire::FrameKind::control_request;
    frame.payload = wire::encode_request(request);
    if (frame.payload.size() > wire::kMaxPayloadBytes) {
        // The peer drops any frame above the cap, so sending it could only
        // end in a timeout after every retry: fail now, naming the sizes.
        Response resp;
        resp.status = Status::failure(util::format(
            "wire: request payload of %zu bytes exceeds the %zu-byte frame cap",
            frame.payload.size(), wire::kMaxPayloadBytes));
        return resp;
    }
    const std::uint64_t seq = ++next_seq_;
    frame.seq = seq;

    const std::uint32_t attempts = std::max<std::uint32_t>(1, policy_.max_attempts);
    Response resp;
    for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            ++stats_.retries;
            if (obs::metrics_on()) obs::count(obs::Counter::wire_retries);
            if (obs::trace_on()) {
                obs::trace_instant("wire_retry", "seq", seq, "attempt", attempt);
            }
        }
        transport_->send(frame);
        ++stats_.frames_sent;
        if (wait_for(seq, policy_.timeout_ticks, resp)) return resp;
        if (attempt + 1 < attempts) {
            const std::uint64_t backoff =
                std::min(kBackoffBaseTicks << attempt, kBackoffCapTicks);
            // Keep listening during the backoff: the response may just be slow.
            if (backoff > 0 &&
                wait_for(seq, static_cast<std::uint32_t>(backoff), resp)) {
                return resp;
            }
        }
    }
    ++stats_.timeouts;
    if (obs::metrics_on()) obs::count(obs::Counter::wire_timeouts);
    if (obs::trace_on()) {
        obs::trace_instant("wire_timeout", "seq", seq, "attempts", attempts);
    }
    resp = Response{};
    resp.status = Status::failure(
        util::format("wire: request seq %llu timed out after %u attempt(s)",
                     static_cast<unsigned long long>(seq), attempts));
    return resp;
}

}  // namespace ndb::control
