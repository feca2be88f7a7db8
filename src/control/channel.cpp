#include "control/channel.h"

#include <algorithm>

#include "control/transport.h"
#include "control/wire.h"
#include "util/strings.h"

namespace ndb::control {

const char* payload_name(Response::Payload payload) {
    switch (payload) {
        case Response::Payload::none: return "none";
        case Response::Payload::register_value: return "register_value";
        case Response::Payload::counter_value: return "counter_value";
        case Response::Payload::snapshot: return "snapshot";
        case Response::Payload::op_statuses: return "op_statuses";
    }
    return "?";
}

Response dispatch(RuntimeApi& device, const Request& request) {
    Response resp;
    std::visit(
        [&](const auto& req) {
            using T = std::decay_t<decltype(req)>;
            if constexpr (std::is_same_v<T, ReadRegisterReq>) {
                resp.status = device.read_register(req.name, req.index,
                                                   resp.register_value);
                if (resp.status.ok) {
                    resp.payload = Response::Payload::register_value;
                }
            } else if constexpr (std::is_same_v<T, ReadCounterReq>) {
                resp.status = device.read_counter(req.name, req.index,
                                                  resp.counter_value);
                if (resp.status.ok) {
                    resp.payload = Response::Payload::counter_value;
                }
            } else if constexpr (std::is_same_v<T, SnapshotReq>) {
                resp.snapshot = device.snapshot();
                resp.payload = Response::Payload::snapshot;
            } else if constexpr (std::is_same_v<T, ResetReq>) {
                resp.status = device.reset_state();
            } else if constexpr (std::is_same_v<T, ApplyConfigReq>) {
                resp.op_statuses = device.apply(req.ops);
                resp.payload = Response::Payload::op_statuses;
            }
        },
        request);
    return resp;
}

Status RuntimeClient::expect_payload(const Response& response,
                                     Response::Payload want) {
    if (!response.status.ok) return response.status;
    if (response.payload != want) {
        return Status::failure(
            std::string("response carried payload '") +
            payload_name(response.payload) + "', expected '" +
            payload_name(want) + "'");
    }
    return Status::success();
}

Status RuntimeClient::read_register(const std::string& name, std::uint64_t index,
                                    Bitvec& out) {
    const Response resp = channel_->transact(ReadRegisterReq{name, index});
    const Status st = expect_payload(resp, Response::Payload::register_value);
    if (st.ok) out = resp.register_value;
    return st;
}

Status RuntimeClient::read_counter(const std::string& name, std::uint64_t index,
                                   CounterValue& out) {
    const Response resp = channel_->transact(ReadCounterReq{name, index});
    const Status st = expect_payload(resp, Response::Payload::counter_value);
    if (st.ok) out = resp.counter_value;
    return st;
}

std::vector<Status> RuntimeClient::apply(std::span<const ConfigOp> ops) {
    std::vector<Status> statuses;
    statuses.reserve(ops.size());
    // The server decodes at most wire::kMaxSequenceItems ops per request,
    // so a larger batch goes as consecutive requests, in order.
    while (!ops.empty()) {
        const std::span<const ConfigOp> chunk =
            ops.first(std::min(ops.size(), wire::kMaxSequenceItems));
        ops = ops.subspan(chunk.size());
        ApplyConfigReq req;
        req.ops.assign(chunk.begin(), chunk.end());
        const Response resp = channel_->transact(req);
        Status st = expect_payload(resp, Response::Payload::op_statuses);
        if (st.ok && resp.op_statuses.size() != chunk.size()) {
            st = Status::failure(
                util::format("response carried %zu status(es) for %zu op(s)",
                             resp.op_statuses.size(), chunk.size()));
        }
        if (!st.ok) {
            // The whole frame failed (lost on the wire, oversized, or a
            // protocol error): report the same failure on each of its ops so
            // callers' per-op accounting -- and the "wire:" message prefix --
            // is preserved.
            statuses.insert(statuses.end(), chunk.size(), st);
            continue;
        }
        statuses.insert(statuses.end(), resp.op_statuses.begin(),
                        resp.op_statuses.end());
    }
    return statuses;
}

StatusSnapshot RuntimeClient::snapshot() {
    // snapshot() has no Status in its RuntimeApi signature; a response with
    // the wrong payload yields the empty snapshot (all-zero counters), which
    // campaign detection treats like any other observable difference.
    const Response resp = channel_->transact(SnapshotReq{});
    if (resp.payload != Response::Payload::snapshot) return StatusSnapshot{};
    return resp.snapshot;
}

Status RuntimeClient::reset_state() {
    return channel_->transact(ResetReq{}).status;
}

}  // namespace ndb::control
