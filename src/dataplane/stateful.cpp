#include "dataplane/stateful.h"

#include <algorithm>
#include <bit>

namespace ndb::dataplane {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

// base^n mod 2^64 by square-and-multiply.  FNV-1a over a zero byte is one
// multiply by the prime, so folding k zero bytes multiplies by prime^k.
std::uint64_t pow_mod64(std::uint64_t base, std::uint64_t n) {
    std::uint64_t r = 1;
    for (; n != 0; n >>= 1) {
        if (n & 1) r *= base;
        base *= base;
    }
    return r;
}

// Calls fn(index) for every set bit, in index order.
template <typename Fn>
void for_each_set(const std::vector<std::uint64_t>& bits, Fn&& fn) {
    for (std::size_t w = 0; w < bits.size(); ++w) {
        for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
            fn(w * 64 + static_cast<std::uint64_t>(std::countr_zero(word)));
        }
    }
}

}  // namespace

void MeterCell::configure(double committed_rate, std::uint64_t committed_burst,
                          double excess_rate, std::uint64_t excess_burst) {
    committed_rate_ = committed_rate;
    committed_burst_ = committed_burst;
    excess_rate_ = excess_rate;
    excess_burst_ = excess_burst;
    committed_tokens_ = static_cast<double>(committed_burst);
    excess_tokens_ = static_cast<double>(excess_burst);
    last_refill_ns_ = 0;
    configured_ = true;
}

std::uint64_t MeterCell::fold_config(std::uint64_t h) const {
    h = fnv(h, configured_ ? 1 : 0);
    if (!configured_) return h;
    h = fnv(h, std::bit_cast<std::uint64_t>(committed_rate_));
    h = fnv(h, committed_burst_);
    h = fnv(h, std::bit_cast<std::uint64_t>(excess_rate_));
    h = fnv(h, excess_burst_);
    return h;
}

void MeterCell::refill(std::uint64_t now_ns) {
    if (now_ns <= last_refill_ns_) return;
    const double dt = static_cast<double>(now_ns - last_refill_ns_) * 1e-9;
    committed_tokens_ = std::min(static_cast<double>(committed_burst_),
                                 committed_tokens_ + committed_rate_ * dt);
    excess_tokens_ = std::min(static_cast<double>(excess_burst_),
                              excess_tokens_ + excess_rate_ * dt);
    last_refill_ns_ = now_ns;
}

MeterColor MeterCell::execute(std::uint64_t now_ns, std::uint64_t bytes) {
    refill(now_ns);
    const double b = static_cast<double>(bytes);
    if (committed_tokens_ >= b) {
        committed_tokens_ -= b;
        return MeterColor::green;
    }
    if (excess_tokens_ >= b) {
        excess_tokens_ -= b;
        return MeterColor::yellow;
    }
    return MeterColor::red;
}

StatefulSet::StatefulSet(const p4::ir::Program& prog) {
    externs_.resize(prog.externs.size());
    for (const auto& e : prog.externs) {
        auto& slot = externs_[static_cast<std::size_t>(e.id)];
        slot.kind = e.kind;
        slot.name = e.name;
        slot.elem_width = e.elem_width;
        const auto n = static_cast<std::size_t>(e.array_size);
        slot.size = n;
        slot.touched.assign((n + 63) / 64, 0);
        // Zero bytes an untouched cell contributes to the info() fold.
        std::uint64_t zero_bytes = 0;
        switch (e.kind) {
            case p4::ir::ExternDecl::Kind::reg:
                slot.cells.assign(n, Bitvec(e.elem_width));
                zero_bytes = 8 * Bitvec(e.elem_width).word_span().size();
                break;
            case p4::ir::ExternDecl::Kind::counter:
                slot.packets.assign(n, 0);
                slot.bytes.assign(n, 0);
                zero_bytes = 16;  // packets, then bytes
                break;
            case p4::ir::ExternDecl::Kind::meter:
                slot.meters.assign(n, MeterCell{});
                zero_bytes = 8;  // fold_config of an unconfigured cell
                break;
        }
        slot.untouched_pow = pow_mod64(kFnvPrime, zero_bytes);
    }
}

Bitvec StatefulSet::register_read(int extern_id, std::uint64_t index) const {
    const auto& s = externs_.at(static_cast<std::size_t>(extern_id));
    if (index >= s.cells.size()) return Bitvec(s.elem_width);  // OOB reads 0
    return s.cells[index];
}

void StatefulSet::register_write(int extern_id, std::uint64_t index,
                                 const Bitvec& value) {
    auto& s = externs_.at(static_cast<std::size_t>(extern_id));
    if (index >= s.cells.size()) return;  // OOB writes are dropped
    s.cells[index] = value.resize(s.elem_width);
    s.mark(index);
}

void StatefulSet::counter_count(int extern_id, std::uint64_t index,
                                std::uint64_t bytes) {
    auto& s = externs_.at(static_cast<std::size_t>(extern_id));
    if (index >= s.packets.size()) return;
    ++s.packets[index];
    s.bytes[index] += bytes;
    s.mark(index);
}

std::uint64_t StatefulSet::counter_packets(int extern_id, std::uint64_t index) const {
    const auto& s = externs_.at(static_cast<std::size_t>(extern_id));
    return index < s.packets.size() ? s.packets[index] : 0;
}

std::uint64_t StatefulSet::counter_bytes(int extern_id, std::uint64_t index) const {
    const auto& s = externs_.at(static_cast<std::size_t>(extern_id));
    return index < s.bytes.size() ? s.bytes[index] : 0;
}

void StatefulSet::meter_configure(int extern_id, std::uint64_t index,
                                  double committed_rate, std::uint64_t committed_burst,
                                  double excess_rate, std::uint64_t excess_burst) {
    auto& s = externs_.at(static_cast<std::size_t>(extern_id));
    if (index >= s.meters.size()) return;
    s.meters[index].configure(committed_rate, committed_burst, excess_rate,
                              excess_burst);
    s.mark(index);
}

MeterColor StatefulSet::meter_execute(int extern_id, std::uint64_t index,
                                      std::uint64_t now_ns, std::uint64_t bytes) {
    auto& s = externs_.at(static_cast<std::size_t>(extern_id));
    if (index >= s.meters.size()) return MeterColor::red;
    s.mark(index);  // token buckets drain even on an unconfigured meter
    return s.meters[index].execute(now_ns, bytes);
}

std::vector<StatefulSet::Info> StatefulSet::info() const {
    std::vector<Info> out;
    info_into(out);
    return out;
}

void StatefulSet::info_into(std::vector<Info>& out) const {
    out.resize(externs_.size());
    for (std::size_t e = 0; e < externs_.size(); ++e) {
        const ExternState& s = externs_[e];
        Info& inf = out[e];
        inf.name = s.name;
        inf.cells = s.size;
        inf.unconfigured_meters = 0;
        std::uint64_t h = kFnvOffset;
        std::uint64_t next = 0;  // first cell the fold has not reached
        std::uint64_t configured = 0;
        for_each_set(s.touched, [&](std::uint64_t i) {
            h *= pow_mod64(s.untouched_pow, i - next);
            next = i + 1;
            switch (s.kind) {
                case p4::ir::ExternDecl::Kind::reg:
                    for (const std::uint64_t w : s.cells[i].word_span()) {
                        h = fnv(h, w);
                    }
                    break;
                case p4::ir::ExternDecl::Kind::counter:
                    h = fnv(h, s.packets[i]);
                    h = fnv(h, s.bytes[i]);
                    break;
                case p4::ir::ExternDecl::Kind::meter:
                    h = s.meters[i].fold_config(h);
                    if (s.meters[i].configured()) ++configured;
                    break;
            }
        });
        h *= pow_mod64(s.untouched_pow, s.size - next);
        switch (s.kind) {
            case p4::ir::ExternDecl::Kind::reg: inf.kind = "register"; break;
            case p4::ir::ExternDecl::Kind::counter: inf.kind = "counter"; break;
            case p4::ir::ExternDecl::Kind::meter:
                inf.kind = "meter";
                inf.unconfigured_meters = s.size - configured;
                break;
        }
        inf.state_hash = h;
    }
}

void StatefulSet::reset_state() {
    for (auto& s : externs_) {
        for_each_set(s.touched, [&](std::uint64_t i) {
            switch (s.kind) {
                case p4::ir::ExternDecl::Kind::reg: s.cells[i].zero(); break;
                case p4::ir::ExternDecl::Kind::counter:
                    s.packets[i] = 0;
                    s.bytes[i] = 0;
                    break;
                case p4::ir::ExternDecl::Kind::meter: s.meters[i] = MeterCell{}; break;
            }
        });
        std::fill(s.touched.begin(), s.touched.end(), 0);
    }
}

std::uint64_t StatefulSet::touched_cells() const {
    std::uint64_t n = 0;
    for (const auto& s : externs_) {
        for (const std::uint64_t word : s.touched) {
            n += static_cast<std::uint64_t>(std::popcount(word));
        }
    }
    return n;
}

}  // namespace ndb::dataplane
