// Fixed-width bit-vector value type.
//
// Bitvec is the single runtime value representation shared by the packet
// substrate, the P4 interpreter, the table engines and the symbolic
// bit-blaster.  Widths are arbitrary (bounded only by memory); all
// arithmetic wraps modulo 2^width, matching P4-16 bit<N> semantics.
//
// Representation: widths <= 64 bits -- virtually every P4 field -- live in
// a single inline word and never touch the heap; wider values own a
// heap-allocated little-endian word array.  The interpreter hot path
// (field reads/writes, arithmetic, comparisons) is therefore
// allocation-free in the common case, and every operation works on whole
// 64-bit words rather than individual bits.
//
// Construction, copy, move, is_zero, eq/ult/ule, band/bor/bxor/bnot,
// add/sub and resize are defined here with an inline <= 64-bit arm, so a
// narrow value stays in registers across the call; every width check and
// throw sits in front of that arm.  Wider values take the word-loop code
// in bitvec.cpp (the *_wide members).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ndb::util {

class Bitvec {
public:
    // The zero-width vector: identity for concat, used for "no value".
    Bitvec() = default;

    // Zero value of the given width; throws std::invalid_argument when the
    // width is negative.
    explicit Bitvec(int width) : width_(width) {
        if (!fits_inline(width)) init_wide();
    }

    // Low 64 bits taken from `value`, truncated to `width`.
    Bitvec(int width, std::uint64_t value) : width_(width) {
        if (fits_inline(width)) {
            inline_ = value & low_mask(width);
        } else {
            init_wide();
            heap_[0] = value;
        }
    }

    Bitvec(const Bitvec& o) : width_(o.width_) {
        if (o.is_inline()) {
            inline_ = o.inline_;
        } else {
            copy_wide(o.heap_);
        }
    }

    Bitvec(Bitvec&& o) noexcept : width_(o.width_) {
        if (o.is_inline()) {
            inline_ = o.inline_;
        } else {
            heap_ = o.heap_;
            o.width_ = 0;
            o.inline_ = 0;
        }
    }

    Bitvec& operator=(const Bitvec& o) {
        if (!is_inline() || !o.is_inline()) return assign_wide(o);
        width_ = o.width_;
        inline_ = o.inline_;
        return *this;
    }

    Bitvec& operator=(Bitvec&& o) noexcept {
        if (this == &o) return *this;
        if (!is_inline()) delete[] heap_;
        width_ = o.width_;
        if (is_inline()) {
            inline_ = o.inline_;
        } else {
            heap_ = o.heap_;
            o.width_ = 0;
            o.inline_ = 0;
        }
        return *this;
    }

    ~Bitvec() {
        if (!is_inline()) delete[] heap_;
    }

    // Big-endian byte image, as it appears on the wire.  The value uses the
    // low `width` bits of the byte string; excess high-order bits must be 0.
    static Bitvec from_bytes(std::span<const std::uint8_t> be_bytes, int width);

    // Parses "dead_beef" / "0xdeadbeef" style strings.  Throws
    // std::invalid_argument on junk or overflow of `width`.
    static Bitvec from_hex(std::string_view hex, int width);

    // All-ones value of the given width.
    static Bitvec ones(int width);

    int width() const { return width_; }
    bool empty() const { return width_ == 0; }

    // Low 64 bits of the value (wider values are truncated).
    std::uint64_t to_u64() const { return words()[0]; }

    // True when the value fits in 64 bits.
    bool fits_u64() const;

    bool bit(int i) const;
    void set_bit(int i, bool v);

    // Zeroes the value in place, keeping width and storage.
    // Hot in per-packet state reset: every header field is re-zeroed before
    // each parse, so this stays inline (one store for inline-width values).
    void zero() {
        std::uint64_t* w = words();
        for (int i = 0; i < word_count(); ++i) w[i] = 0;
    }

    // Big-endian image, ceil(width/8) bytes.
    std::vector<std::uint8_t> to_bytes() const;

    // Writes the big-endian image into `out` (must hold >= ceil(width/8)
    // bytes); returns the byte count.  Allocation-free.
    std::size_t write_bytes(std::span<std::uint8_t> out) const;

    std::string to_hex() const;           // e.g. "0x0a00_0001" without separators
    std::string to_string() const;        // e.g. "32w0x0a000001"

    bool is_zero() const { return is_inline() ? inline_ == 0 : is_zero_wide(); }
    bool is_ones() const;

    // --- arithmetic, all results have this->width() and wrap ---
    // Binary operations throw std::invalid_argument on a width mismatch.
    Bitvec add(const Bitvec& o) const {
        check_width(o, "Bitvec::add width mismatch");
        if (!is_inline()) return add_wide(o);
        return narrow(width_, (inline_ + o.inline_) & low_mask(width_));
    }
    Bitvec sub(const Bitvec& o) const {
        check_width(o, "Bitvec::sub width mismatch");
        if (!is_inline()) return add_wide(o.neg());
        return narrow(width_, (inline_ - o.inline_) & low_mask(width_));
    }
    Bitvec mul(const Bitvec& o) const;
    Bitvec band(const Bitvec& o) const {
        check_width(o, "Bitvec::band width mismatch");
        return is_inline() ? narrow(width_, inline_ & o.inline_) : band_wide(o);
    }
    Bitvec bor(const Bitvec& o) const {
        check_width(o, "Bitvec::bor width mismatch");
        return is_inline() ? narrow(width_, inline_ | o.inline_) : bor_wide(o);
    }
    Bitvec bxor(const Bitvec& o) const {
        check_width(o, "Bitvec::bxor width mismatch");
        return is_inline() ? narrow(width_, inline_ ^ o.inline_) : bxor_wide(o);
    }
    Bitvec bnot() const {
        return is_inline() ? narrow(width_, ~inline_ & low_mask(width_)) : bnot_wide();
    }
    Bitvec shl(int amount) const;
    Bitvec lshr(int amount) const;
    Bitvec neg() const;

    // --- comparisons (operands must have equal width, else
    // std::invalid_argument) ---
    bool eq(const Bitvec& o) const {
        check_width(o, "Bitvec::eq width mismatch");
        return is_inline() ? inline_ == o.inline_ : *this == o;
    }
    bool ult(const Bitvec& o) const {
        check_width(o, "Bitvec::ult width mismatch");
        return is_inline() ? inline_ < o.inline_ : ult_wide(o);
    }
    bool ule(const Bitvec& o) const { return !o.ult(*this); }
    bool ugt(const Bitvec& o) const { return o.ult(*this); }
    bool uge(const Bitvec& o) const { return o.ule(*this); }

    // Bits [hi..lo] inclusive, P4 slice semantics; result width hi-lo+1.
    Bitvec slice(int hi, int lo) const;

    // Overwrites bits [hi..lo] with the low hi-lo+1 bits of `v`, in place.
    void set_slice(int hi, int lo, const Bitvec& v);

    // `hi` occupies the high-order bits of the result.
    static Bitvec concat(const Bitvec& hi, const Bitvec& lo);

    // Zero-extend or truncate to new_width (std::invalid_argument when
    // negative).
    Bitvec resize(int new_width) const {
        return fits_inline(new_width) ? Bitvec(new_width, to_u64())
                                      : resize_wide(new_width);
    }

    std::size_t hash() const;

    // Little-endian word image, ceil(width/64) words (one word when width
    // is 0, for uniformity).  The span is invalidated by any mutation.
    std::span<const std::uint64_t> word_span() const {
        return {words(), static_cast<std::size_t>(word_count())};
    }

    friend bool operator==(const Bitvec& a, const Bitvec& b) {
        if (a.width_ != b.width_) return false;
        const std::uint64_t* wa = a.words();
        const std::uint64_t* wb = b.words();
        for (int i = 0; i < a.word_count(); ++i) {
            if (wa[i] != wb[i]) return false;
        }
        return true;
    }
    friend bool operator!=(const Bitvec& a, const Bitvec& b) { return !(a == b); }

private:
    static int words_for(int width) { return width <= 64 ? 1 : (width + 63) / 64; }
    // True for widths 0..64; a negative width reads as huge.
    static bool fits_inline(int width) { return static_cast<unsigned>(width) <= 64u; }
    // The low `width` (0..64) bits set.
    static std::uint64_t low_mask(int width) {
        return width >= 64 ? ~0ull : (1ull << width) - 1;
    }
    // An inline value from bits already confined to `width` (0..64).
    static Bitvec narrow(int width, std::uint64_t bits) {
        Bitvec r;
        r.width_ = width;
        r.inline_ = bits;
        return r;
    }

    bool is_inline() const { return width_ <= 64; }
    int word_count() const { return words_for(width_); }
    const std::uint64_t* words() const { return is_inline() ? &inline_ : heap_; }
    std::uint64_t* words() { return is_inline() ? &inline_ : heap_; }

    void check_width(const Bitvec& o, const char* what) const {
        if (o.width_ != width_) throw_width_mismatch(what);
    }
    [[noreturn]] static void throw_width_mismatch(const char* what);

    // The out-of-line arms: any width, though the inline arms above only
    // send wide values here.  Operand widths are already checked.
    void init_wide();  // throws on a negative width_, else zeroed heap words
    void copy_wide(const std::uint64_t* src);
    Bitvec& assign_wide(const Bitvec& o);
    bool is_zero_wide() const;
    Bitvec add_wide(const Bitvec& o) const;
    Bitvec band_wide(const Bitvec& o) const;
    Bitvec bor_wide(const Bitvec& o) const;
    Bitvec bxor_wide(const Bitvec& o) const;
    Bitvec bnot_wide() const;
    bool ult_wide(const Bitvec& o) const;
    Bitvec resize_wide(int new_width) const;

    void normalize();  // clears bits above width_

    int width_ = 0;
    union {
        std::uint64_t inline_ = 0;      // width_ <= 64
        std::uint64_t* heap_;           // width_ > 64: words_for(width_) words
    };
};

struct BitvecHash {
    std::size_t operator()(const Bitvec& v) const { return v.hash(); }
};

}  // namespace ndb::util
