// Packet: packet bytes with bit-granular field access plus device metadata.
//
// Bit addressing follows network order: bit offset 0 is the most significant
// bit of byte 0, matching how P4 header fields map onto the wire.
//
// Storage follows the size.  A packet of at most kInlineBytes bytes keeps
// them inside the object, so building, copying, moving and queueing one
// never calls the allocator; only a longer packet spills to a heap buffer
// of exactly its size.  Every packet the catalogue programs generate or
// forward fits inline (the largest stimulus and the largest deparsed output
// over 3,000 generated scenarios are both 110 bytes).  A move steals a heap
// buffer but copies an inline packet's whole kInlineBytes buffer, and
// leaves the source empty.  data() and bytes_mut() are views into the
// current storage: resize() and assignment invalidate them.
//
// Every reader is bounds-checked against size(), never against the inline
// capacity: a read past the end throws even where it would stay inside the
// object, which is exactly where AddressSanitizer cannot see it.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

#include "util/bitvec.h"

namespace ndb::packet {

// Metadata carried alongside a packet while it traverses a device model.
struct PacketMeta {
    std::uint32_t ingress_port = 0;
    std::uint32_t egress_port = 0;
    std::uint64_t rx_time_ns = 0;   // when the device accepted the packet
    std::uint64_t tx_time_ns = 0;   // when the device emitted it (0 until sent)
    std::uint64_t id = 0;           // monotonically assigned by generators
};

class Packet {
public:
    // Packets up to this many bytes live inside the object.
    static constexpr std::size_t kInlineBytes = 128;

    Packet() = default;
    explicit Packet(std::span<const std::uint8_t> bytes) {
        resize(bytes.size());
        if (!bytes.empty()) std::memcpy(storage(), bytes.data(), bytes.size());
    }
    static Packet zeros(std::size_t n) {
        Packet p;
        p.resize(n);
        return p;
    }

    Packet(const Packet& o) : meta(o.meta) { copy_from(o); }
    Packet(Packet&& o) noexcept : meta(o.meta) { take(o); }
    Packet& operator=(const Packet& o) {
        if (this != &o) {
            copy_from(o);
            meta = o.meta;
        }
        return *this;
    }
    Packet& operator=(Packet&& o) noexcept {
        if (this != &o) {
            release();
            take(o);
            meta = o.meta;
        }
        return *this;
    }
    ~Packet() { release(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    std::span<const std::uint8_t> data() const { return {storage(), size_}; }
    std::span<std::uint8_t> bytes_mut() { return {storage(), size_}; }

    // Throw std::out_of_range at i >= size().
    std::uint8_t byte(std::size_t i) const {
        if (i >= size_) throw_past_end("byte");
        return storage()[i];
    }
    void set_byte(std::size_t i, std::uint8_t v) {
        if (i >= size_) throw_past_end("set_byte");
        storage()[i] = v;
    }

    // Reads `width` bits starting at `bit_offset` (network order).
    // Throws std::out_of_range past the end of the buffer.
    util::Bitvec extract_bits(std::size_t bit_offset, int width) const;

    // Writes value.width() bits at `bit_offset`.
    void deposit_bits(std::size_t bit_offset, const util::Bitvec& value);

    // Convenience for fields of <= 64 bits.
    void set_u(std::size_t bit_offset, int width, std::uint64_t value);

    // Grows (zero-filling) or shrinks to `n` bytes, moving the bytes between
    // the inline buffer and the heap when `n` crosses kInlineBytes.
    void resize(std::size_t n);

    // Structural equality on bytes only (metadata excluded).
    bool same_bytes(const Packet& o) const {
        return size_ == o.size_ &&
               (size_ == 0 || std::memcmp(storage(), o.storage(), size_) == 0);
    }

    PacketMeta meta;

private:
    bool on_heap() const { return size_ > kInlineBytes; }
    const std::uint8_t* storage() const { return on_heap() ? heap_ : inline_; }
    std::uint8_t* storage() { return on_heap() ? heap_ : inline_; }

    // Replaces the bytes with a copy of `o`'s (another packet).
    void copy_from(const Packet& o) {
        if (o.on_heap()) {
            resize(o.size_);
            std::memcpy(heap_, o.heap_, o.size_);
            return;
        }
        release();
        copy_inline(o);
        size_ = o.size_;
    }
    // Takes `o`'s bytes into this (empty) packet and leaves `o` empty.
    void take(Packet& o) noexcept {
        if (o.on_heap()) {
            heap_ = o.heap_;
            o.heap_ = nullptr;
        } else {
            copy_inline(o);
        }
        size_ = o.size_;
        o.size_ = 0;
    }
    // Copies the whole inline buffer, tail past size_ included: a copy of
    // fixed size compiles to a few vector moves, cheaper than one sized to
    // the packet, and the tail is never read.
    void copy_inline(const Packet& o) noexcept {
        std::memcpy(inline_, o.inline_, kInlineBytes);
    }
    // Frees a heap buffer and leaves the packet empty.
    void release() noexcept {
        delete[] heap_;
        heap_ = nullptr;
        size_ = 0;
    }
    [[noreturn]] static void throw_past_end(const char* what);

    std::size_t size_ = 0;
    std::uint8_t* heap_ = nullptr;  // size_ bytes while on_heap(), else null
    // Not zero-filled up front: every path that sets size_ writes bytes
    // [0, size_), and no reader looks past size_.
    std::uint8_t inline_[kInlineBytes];
};

}  // namespace ndb::packet
