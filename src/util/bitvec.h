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

    // Zero value of the given width (width >= 0).
    explicit Bitvec(int width);

    // Low 64 bits taken from `value`, truncated to `width`.
    Bitvec(int width, std::uint64_t value);

    Bitvec(const Bitvec& o);
    Bitvec(Bitvec&& o) noexcept;
    Bitvec& operator=(const Bitvec& o);
    Bitvec& operator=(Bitvec&& o) noexcept;
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

    bool is_zero() const;
    bool is_ones() const;

    // --- arithmetic, all results have this->width() and wrap ---
    Bitvec add(const Bitvec& o) const;
    Bitvec sub(const Bitvec& o) const;
    Bitvec mul(const Bitvec& o) const;
    Bitvec band(const Bitvec& o) const;
    Bitvec bor(const Bitvec& o) const;
    Bitvec bxor(const Bitvec& o) const;
    Bitvec bnot() const;
    Bitvec shl(int amount) const;
    Bitvec lshr(int amount) const;
    Bitvec neg() const;

    // --- comparisons (operands must have equal width) ---
    bool eq(const Bitvec& o) const;
    bool ult(const Bitvec& o) const;
    bool ule(const Bitvec& o) const;
    bool ugt(const Bitvec& o) const { return o.ult(*this); }
    bool uge(const Bitvec& o) const { return o.ule(*this); }

    // Bits [hi..lo] inclusive, P4 slice semantics; result width hi-lo+1.
    Bitvec slice(int hi, int lo) const;

    // Overwrites bits [hi..lo] with the low hi-lo+1 bits of `v`, in place.
    void set_slice(int hi, int lo, const Bitvec& v);

    // `hi` occupies the high-order bits of the result.
    static Bitvec concat(const Bitvec& hi, const Bitvec& lo);

    // Zero-extend or truncate to new_width.
    Bitvec resize(int new_width) const;

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

    bool is_inline() const { return width_ <= 64; }
    int word_count() const { return words_for(width_); }
    const std::uint64_t* words() const { return is_inline() ? &inline_ : heap_; }
    std::uint64_t* words() { return is_inline() ? &inline_ : heap_; }

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
