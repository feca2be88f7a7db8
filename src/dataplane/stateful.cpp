#include "dataplane/stateful.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <type_traits>

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
void for_each_set(std::span<const std::uint64_t> bits, Fn&& fn) {
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

namespace {

// A meter cell is stored as its bytes in the set's word buffer.
static_assert(std::is_trivially_copyable_v<MeterCell>);
constexpr std::size_t kMeterWords = (sizeof(MeterCell) + 7) / 8;

MeterCell load_meter(const std::uint64_t* words) {
    MeterCell m;
    std::memcpy(static_cast<void*>(&m), words, sizeof m);
    return m;
}

void store_meter(std::uint64_t* words, const MeterCell& m) {
    std::memcpy(words, &m, sizeof m);
}

}  // namespace

void StatefulSet::load(const p4::ir::Program& prog) {
    if (externs_.size() < prog.externs.size()) externs_.resize(prog.externs.size());
    count_ = prog.externs.size();
    std::size_t cells = 0;
    std::size_t touched = 0;
    for (const auto& e : prog.externs) {
        ExternState& s = externs_[static_cast<std::size_t>(e.id)];
        s.kind = e.kind;
        s.name = e.name;
        s.elem_width = e.elem_width;
        s.size = static_cast<std::uint64_t>(e.array_size);
        switch (e.kind) {
            case p4::ir::ExternDecl::Kind::reg:
                // As many words as the value's Bitvec::word_span().
                s.cell_words =
                    static_cast<std::size_t>(std::max(1, (e.elem_width + 63) / 64));
                break;
            case p4::ir::ExternDecl::Kind::counter:
                s.cell_words = 2;  // packets, then bytes
                break;
            case p4::ir::ExternDecl::Kind::meter:
                s.cell_words = kMeterWords;
                break;
        }
        s.first_cell = cells;
        s.first_touched = touched;
        cells += s.size * s.cell_words;
        touched += (s.size + 63) / 64;
        // Zero bytes an untouched cell contributes to the info() fold: a
        // register's words, a counter's two counts, and fold_config of an
        // unconfigured meter.
        const std::uint64_t zero_bytes =
            e.kind == p4::ir::ExternDecl::Kind::meter ? 8 : 8 * s.cell_words;
        s.untouched_pow = pow_mod64(kFnvPrime, zero_bytes);
    }
    // Power-on values: every word zero, then each meter cell unconfigured.
    cells_.assign(cells, 0);
    touched_.assign(touched, 0);
    for (std::size_t e = 0; e < count_; ++e) {
        const ExternState& s = externs_[e];
        if (s.kind != p4::ir::ExternDecl::Kind::meter) continue;
        for (std::uint64_t i = 0; i < s.size; ++i) clear_cell(s, i);
    }
}

const StatefulSet::ExternState& StatefulSet::slot(int extern_id) const {
    const auto i = static_cast<std::size_t>(extern_id);  // -1 wraps high
    if (i >= count_) throw std::out_of_range("StatefulSet: extern id out of range");
    return externs_[i];
}

void StatefulSet::clear_cell(const ExternState& s, std::uint64_t index) {
    std::uint64_t* c = cell(s, index);
    if (s.kind == p4::ir::ExternDecl::Kind::meter) {
        store_meter(c, MeterCell{});
    } else {
        std::fill(c, c + s.cell_words, 0);
    }
}

Bitvec StatefulSet::register_read(int extern_id, std::uint64_t index) const {
    const ExternState& s = slot(extern_id);
    if (s.kind != p4::ir::ExternDecl::Kind::reg || index >= s.size) {
        return Bitvec(s.elem_width);  // OOB reads 0
    }
    const std::uint64_t* c = cell(s, index);
    if (s.cell_words == 1) return Bitvec(s.elem_width, c[0]);
    Bitvec v(s.elem_width);
    for (std::size_t k = 0; k < s.cell_words; ++k) {
        const int lo = static_cast<int>(k) * 64;
        const int chunk = std::min(64, s.elem_width - lo);
        v.set_slice(lo + chunk - 1, lo, Bitvec(chunk, c[k]));
    }
    return v;
}

void StatefulSet::register_write(int extern_id, std::uint64_t index,
                                 const Bitvec& value) {
    const ExternState& s = slot(extern_id);
    if (s.kind != p4::ir::ExternDecl::Kind::reg || index >= s.size) {
        return;  // OOB writes are dropped
    }
    const Bitvec v = value.resize(s.elem_width);
    const auto words = v.word_span();
    std::copy(words.begin(), words.end(), cell(s, index));
    mark(s, index);
}

void StatefulSet::counter_count(int extern_id, std::uint64_t index,
                                std::uint64_t bytes) {
    const ExternState& s = slot(extern_id);
    if (s.kind != p4::ir::ExternDecl::Kind::counter || index >= s.size) return;
    std::uint64_t* c = cell(s, index);
    ++c[0];
    c[1] += bytes;
    mark(s, index);
}

std::uint64_t StatefulSet::counter_packets(int extern_id, std::uint64_t index) const {
    const ExternState& s = slot(extern_id);
    if (s.kind != p4::ir::ExternDecl::Kind::counter || index >= s.size) return 0;
    return cell(s, index)[0];
}

std::uint64_t StatefulSet::counter_bytes(int extern_id, std::uint64_t index) const {
    const ExternState& s = slot(extern_id);
    if (s.kind != p4::ir::ExternDecl::Kind::counter || index >= s.size) return 0;
    return cell(s, index)[1];
}

void StatefulSet::meter_configure(int extern_id, std::uint64_t index,
                                  double committed_rate, std::uint64_t committed_burst,
                                  double excess_rate, std::uint64_t excess_burst) {
    const ExternState& s = slot(extern_id);
    if (s.kind != p4::ir::ExternDecl::Kind::meter || index >= s.size) return;
    MeterCell m = load_meter(cell(s, index));
    m.configure(committed_rate, committed_burst, excess_rate, excess_burst);
    store_meter(cell(s, index), m);
    mark(s, index);
}

MeterColor StatefulSet::meter_execute(int extern_id, std::uint64_t index,
                                      std::uint64_t now_ns, std::uint64_t bytes) {
    const ExternState& s = slot(extern_id);
    if (s.kind != p4::ir::ExternDecl::Kind::meter || index >= s.size) {
        return MeterColor::red;
    }
    mark(s, index);  // token buckets drain even on an unconfigured meter
    MeterCell m = load_meter(cell(s, index));
    const MeterColor color = m.execute(now_ns, bytes);
    store_meter(cell(s, index), m);
    return color;
}

std::vector<StatefulSet::Info> StatefulSet::info() const {
    std::vector<Info> out;
    info_into(out);
    return out;
}

void StatefulSet::info_into(std::vector<Info>& out) const {
    out.resize(count_);
    for (std::size_t e = 0; e < count_; ++e) {
        const ExternState& s = externs_[e];
        Info& inf = out[e];
        inf.name = s.name;
        inf.cells = s.size;
        inf.unconfigured_meters = 0;
        std::uint64_t h = kFnvOffset;
        std::uint64_t next = 0;  // first cell the fold has not reached
        std::uint64_t configured = 0;
        for_each_set(touched(s), [&](std::uint64_t i) {
            h *= pow_mod64(s.untouched_pow, i - next);
            next = i + 1;
            const std::uint64_t* c = cell(s, i);
            if (s.kind == p4::ir::ExternDecl::Kind::meter) {
                const MeterCell m = load_meter(c);
                h = m.fold_config(h);
                if (m.configured()) ++configured;
            } else {
                // A register's words, or a counter's packets then bytes.
                for (std::size_t k = 0; k < s.cell_words; ++k) h = fnv(h, c[k]);
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
    for (std::size_t e = 0; e < count_; ++e) {
        const ExternState& s = externs_[e];
        for_each_set(touched(s), [&](std::uint64_t i) { clear_cell(s, i); });
    }
    std::fill(touched_.begin(), touched_.end(), 0);
}

std::uint64_t StatefulSet::touched_cells() const {
    std::uint64_t n = 0;
    for (const std::uint64_t word : touched_) {
        n += static_cast<std::uint64_t>(std::popcount(word));
    }
    return n;
}

}  // namespace ndb::dataplane
