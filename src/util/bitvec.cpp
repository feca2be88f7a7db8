#include "util/bitvec.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace ndb::util {

namespace {

int hex_digit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
}

// Mask of the low `rem` bits of the top word (rem in [1..64]).
std::uint64_t top_mask(int width) {
    const int rem = width % 64;
    return rem == 0 ? ~0ull : (~0ull >> (64 - rem));
}

}  // namespace

void Bitvec::throw_width_mismatch(const char* what) {
    throw std::invalid_argument(what);
}

void Bitvec::init_wide() {
    if (width_ < 0) throw std::invalid_argument("Bitvec: negative width");
    heap_ = new std::uint64_t[static_cast<std::size_t>(words_for(width_))]();
}

void Bitvec::copy_wide(const std::uint64_t* src) {
    const std::size_t n = static_cast<std::size_t>(word_count());
    heap_ = new std::uint64_t[n];
    std::memcpy(heap_, src, n * sizeof(std::uint64_t));
}

Bitvec& Bitvec::assign_wide(const Bitvec& o) {
    if (this == &o) return *this;
    if (!is_inline() && !o.is_inline() && word_count() == o.word_count()) {
        // Same heap footprint: reuse the allocation.
        width_ = o.width_;
        std::memcpy(heap_, o.heap_, static_cast<std::size_t>(word_count()) *
                                        sizeof(std::uint64_t));
        return *this;
    }
    // Acquire the replacement storage before releasing the old one so a
    // throwing allocation leaves *this untouched (no dangling heap_).
    std::uint64_t* fresh = nullptr;
    if (!o.is_inline()) {
        const std::size_t n = static_cast<std::size_t>(o.word_count());
        fresh = new std::uint64_t[n];
        std::memcpy(fresh, o.heap_, n * sizeof(std::uint64_t));
    }
    if (!is_inline()) delete[] heap_;
    width_ = o.width_;
    if (is_inline()) {
        inline_ = o.inline_;
    } else {
        heap_ = fresh;
    }
    return *this;
}

Bitvec Bitvec::from_bytes(std::span<const std::uint8_t> be_bytes, int width) {
    Bitvec r(width);
    std::uint64_t* w = r.words();
    // Byte 0 of the input is the most significant byte of the value: walk
    // from the tail, filling whole words.
    std::size_t bit = 0;
    for (auto it = be_bytes.rbegin(); it != be_bytes.rend(); ++it, bit += 8) {
        const std::uint8_t b = *it;
        if (b == 0) continue;
        if (bit + 8 <= static_cast<std::size_t>(width)) {
            // `bit` advances in whole bytes, so the chunk never straddles words.
            w[bit / 64] |= static_cast<std::uint64_t>(b) << (bit % 64);
        } else {
            // Partial or fully-excess byte: excess high-order bits must be 0.
            for (int k = 0; k < 8; ++k) {
                if (!((b >> k) & 1)) continue;
                if (bit + static_cast<std::size_t>(k) >=
                    static_cast<std::size_t>(width)) {
                    throw std::invalid_argument(
                        "Bitvec::from_bytes: value exceeds width");
                }
                const std::size_t pos = bit + static_cast<std::size_t>(k);
                w[pos / 64] |= 1ull << (pos % 64);
            }
        }
    }
    return r;
}

Bitvec Bitvec::from_hex(std::string_view hex, int width) {
    if (hex.starts_with("0x") || hex.starts_with("0X")) hex.remove_prefix(2);
    Bitvec r(width);
    int bit = 0;
    for (auto it = hex.rbegin(); it != hex.rend(); ++it) {
        if (*it == '_' || *it == '\'') continue;
        const int d = hex_digit(*it);
        if (d < 0) throw std::invalid_argument("Bitvec::from_hex: bad digit");
        for (int b = 0; b < 4; ++b, ++bit) {
            const bool on = (d >> b) & 1;
            if (bit >= width) {
                if (on) throw std::invalid_argument("Bitvec::from_hex: value exceeds width");
                continue;
            }
            if (on) r.set_bit(bit, true);
        }
    }
    return r;
}

Bitvec Bitvec::ones(int width) {
    Bitvec r(width);
    std::uint64_t* w = r.words();
    for (int i = 0; i < r.word_count(); ++i) w[i] = ~0ull;
    r.normalize();
    return r;
}

void Bitvec::normalize() {
    if (width_ == 0) {
        inline_ = 0;
        return;
    }
    words()[word_count() - 1] &= top_mask(width_);
}

bool Bitvec::fits_u64() const {
    const std::uint64_t* w = words();
    for (int i = 1; i < word_count(); ++i) {
        if (w[i] != 0) return false;
    }
    return true;
}

bool Bitvec::bit(int i) const {
    if (i < 0 || i >= width_) throw std::out_of_range("Bitvec::bit");
    return (words()[i / 64] >> (i % 64)) & 1;
}

void Bitvec::set_bit(int i, bool v) {
    if (i < 0 || i >= width_) throw std::out_of_range("Bitvec::set_bit");
    const std::uint64_t mask = 1ull << (i % 64);
    if (v) {
        words()[i / 64] |= mask;
    } else {
        words()[i / 64] &= ~mask;
    }
}

std::size_t Bitvec::write_bytes(std::span<std::uint8_t> out) const {
    const std::size_t n = static_cast<std::size_t>((width_ + 7) / 8);
    if (out.size() < n) throw std::invalid_argument("Bitvec::write_bytes: short buffer");
    const std::uint64_t* w = words();
    for (std::size_t i = 0; i < n; ++i) {
        // Byte i of the output holds value bits [8*(n-1-i) .. 8*(n-1-i)+7];
        // byte-aligned positions never straddle a word boundary.
        const std::size_t bit = 8 * (n - 1 - i);
        out[i] = static_cast<std::uint8_t>(w[bit / 64] >> (bit % 64));
    }
    return n;
}

std::vector<std::uint8_t> Bitvec::to_bytes() const {
    std::vector<std::uint8_t> out(static_cast<std::size_t>((width_ + 7) / 8), 0);
    write_bytes(out);
    return out;
}

std::string Bitvec::to_hex() const {
    static const char* digits = "0123456789abcdef";
    const int n = width_ < 4 ? 1 : (width_ + 3) / 4;  // at least one digit
    std::string s = "0x";
    s.reserve(2 + static_cast<std::size_t>(n));
    const std::uint64_t* w = words();
    for (int i = n - 1; i >= 0; --i) {
        const int bit = i * 4;  // 4-aligned: a digit never straddles words
        s.push_back(bit >= width_ ? '0' : digits[(w[bit / 64] >> (bit % 64)) & 0xf]);
    }
    return s;
}

std::string Bitvec::to_string() const {
    return std::to_string(width_) + "w" + to_hex();
}

bool Bitvec::is_zero_wide() const {
    const std::uint64_t* w = words();
    for (int i = 0; i < word_count(); ++i) {
        if (w[i] != 0) return false;
    }
    return true;
}

bool Bitvec::is_ones() const {
    if (width_ == 0) return true;
    const std::uint64_t* w = words();
    for (int i = 0; i < word_count() - 1; ++i) {
        if (w[i] != ~0ull) return false;
    }
    return w[word_count() - 1] == top_mask(width_);
}

Bitvec Bitvec::add_wide(const Bitvec& o) const {
    Bitvec r(width_);
    const std::uint64_t* a = words();
    const std::uint64_t* b = o.words();
    std::uint64_t* out = r.words();
    unsigned __int128 carry = 0;
    for (int i = 0; i < word_count(); ++i) {
        const unsigned __int128 s =
            static_cast<unsigned __int128>(a[i]) + b[i] + carry;
        out[i] = static_cast<std::uint64_t>(s);
        carry = s >> 64;
    }
    r.normalize();
    return r;
}

Bitvec Bitvec::neg() const { return bnot().add(Bitvec(width_, width_ ? 1 : 0)); }

Bitvec Bitvec::mul(const Bitvec& o) const {
    if (o.width_ != width_) throw std::invalid_argument("Bitvec::mul width mismatch");
    Bitvec r(width_);
    const std::uint64_t* a = words();
    const std::uint64_t* b = o.words();
    std::uint64_t* out = r.words();
    for (int i = 0; i < word_count(); ++i) {
        unsigned __int128 carry = 0;
        for (int j = 0; i + j < word_count(); ++j) {
            const unsigned __int128 cur =
                static_cast<unsigned __int128>(a[i]) * b[j] + out[i + j] + carry;
            out[i + j] = static_cast<std::uint64_t>(cur);
            carry = cur >> 64;
        }
    }
    r.normalize();
    return r;
}

Bitvec Bitvec::band_wide(const Bitvec& o) const {
    Bitvec r(width_);
    const std::uint64_t* a = words();
    const std::uint64_t* b = o.words();
    std::uint64_t* out = r.words();
    for (int i = 0; i < word_count(); ++i) out[i] = a[i] & b[i];
    return r;
}

Bitvec Bitvec::bor_wide(const Bitvec& o) const {
    Bitvec r(width_);
    const std::uint64_t* a = words();
    const std::uint64_t* b = o.words();
    std::uint64_t* out = r.words();
    for (int i = 0; i < word_count(); ++i) out[i] = a[i] | b[i];
    return r;
}

Bitvec Bitvec::bxor_wide(const Bitvec& o) const {
    Bitvec r(width_);
    const std::uint64_t* a = words();
    const std::uint64_t* b = o.words();
    std::uint64_t* out = r.words();
    for (int i = 0; i < word_count(); ++i) out[i] = a[i] ^ b[i];
    return r;
}

Bitvec Bitvec::bnot_wide() const {
    Bitvec r(width_);
    const std::uint64_t* a = words();
    std::uint64_t* out = r.words();
    for (int i = 0; i < word_count(); ++i) out[i] = ~a[i];
    r.normalize();
    return r;
}

Bitvec Bitvec::shl(int amount) const {
    if (amount < 0) throw std::invalid_argument("Bitvec::shl negative shift");
    Bitvec r(width_);
    if (amount >= width_) return r;
    const std::uint64_t* a = words();
    std::uint64_t* out = r.words();
    const int word_shift = amount / 64;
    const int bit_shift = amount % 64;
    for (int i = word_count() - 1; i >= word_shift; --i) {
        std::uint64_t v = a[i - word_shift] << bit_shift;
        if (bit_shift != 0 && i - word_shift - 1 >= 0) {
            v |= a[i - word_shift - 1] >> (64 - bit_shift);
        }
        out[i] = v;
    }
    r.normalize();
    return r;
}

Bitvec Bitvec::lshr(int amount) const {
    if (amount < 0) throw std::invalid_argument("Bitvec::lshr negative shift");
    Bitvec r(width_);
    if (amount >= width_) return r;
    const std::uint64_t* a = words();
    std::uint64_t* out = r.words();
    const int word_shift = amount / 64;
    const int bit_shift = amount % 64;
    const int n = word_count();
    for (int i = 0; i + word_shift < n; ++i) {
        std::uint64_t v = a[i + word_shift] >> bit_shift;
        if (bit_shift != 0 && i + word_shift + 1 < n) {
            v |= a[i + word_shift + 1] << (64 - bit_shift);
        }
        out[i] = v;
    }
    return r;
}

bool Bitvec::ult_wide(const Bitvec& o) const {
    const std::uint64_t* a = words();
    const std::uint64_t* b = o.words();
    for (int i = word_count() - 1; i >= 0; --i) {
        if (a[i] != b[i]) return a[i] < b[i];
    }
    return false;
}

Bitvec Bitvec::slice(int hi, int lo) const {
    if (lo < 0 || hi >= width_ || hi < lo) throw std::out_of_range("Bitvec::slice");
    Bitvec r(hi - lo + 1);
    const std::uint64_t* a = words();
    std::uint64_t* out = r.words();
    const int word_shift = lo / 64;
    const int bit_shift = lo % 64;
    const int n_in = word_count();
    for (int i = 0; i < r.word_count(); ++i) {
        std::uint64_t v = 0;
        if (i + word_shift < n_in) v = a[i + word_shift] >> bit_shift;
        if (bit_shift != 0 && i + word_shift + 1 < n_in) {
            v |= a[i + word_shift + 1] << (64 - bit_shift);
        }
        out[i] = v;
    }
    r.normalize();
    return r;
}

void Bitvec::set_slice(int hi, int lo, const Bitvec& v) {
    if (lo < 0 || hi >= width_ || hi < lo) throw std::out_of_range("Bitvec::set_slice");
    const int n = hi - lo + 1;
    std::uint64_t* w = words();
    const std::uint64_t* src = v.words();
    const int src_words = v.word_count();
    int written = 0;
    while (written < n) {
        const int pos = lo + written;
        const int in_word = pos % 64;
        const int chunk = std::min({n - written, 64 - in_word});
        const int sbit = written;
        std::uint64_t bits = sbit / 64 < src_words ? src[sbit / 64] >> (sbit % 64) : 0;
        if (sbit % 64 != 0 && sbit / 64 + 1 < src_words) {
            bits |= src[sbit / 64 + 1] << (64 - sbit % 64);
        }
        // Bits of `v` beyond its width read as zero.
        if (sbit + chunk > v.width_) {
            const int live = std::max(0, v.width_ - sbit);
            bits &= live >= 64 ? ~0ull : ((1ull << live) - 1);
        }
        const std::uint64_t mask =
            (chunk >= 64 ? ~0ull : ((1ull << chunk) - 1)) << in_word;
        w[pos / 64] = (w[pos / 64] & ~mask) | ((bits << in_word) & mask);
        written += chunk;
    }
}

Bitvec Bitvec::concat(const Bitvec& hi, const Bitvec& lo) {
    Bitvec r(hi.width_ + lo.width_);
    std::uint64_t* out = r.words();
    const std::uint64_t* lw = lo.words();
    for (int i = 0; i < lo.word_count() && i < r.word_count(); ++i) out[i] = lw[i];
    if (hi.width_ > 0) {
        const std::uint64_t* hw = hi.words();
        const int shift_words = lo.width_ / 64;
        const int shift_bits = lo.width_ % 64;
        for (int i = 0; i < hi.word_count(); ++i) {
            const int base = i + shift_words;
            if (base < r.word_count()) out[base] |= hw[i] << shift_bits;
            if (shift_bits != 0 && base + 1 < r.word_count()) {
                out[base + 1] |= hw[i] >> (64 - shift_bits);
            }
        }
    }
    r.normalize();
    return r;
}

Bitvec Bitvec::resize_wide(int new_width) const {
    Bitvec r(new_width);
    const std::uint64_t* a = words();
    std::uint64_t* out = r.words();
    const int n = std::min(word_count(), r.word_count());
    for (int i = 0; i < n; ++i) out[i] = a[i];
    r.normalize();
    return r;
}

std::size_t Bitvec::hash() const {
    std::size_t h = static_cast<std::size_t>(width_) * 0x9e3779b97f4a7c15ull;
    const std::uint64_t* w = words();
    for (int i = 0; i < word_count(); ++i) {
        h ^= w[i] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
}

}  // namespace ndb::util
