// Packet storage at the inline boundary.
//
// A Packet keeps up to Packet::kInlineBytes bytes inside the object and
// spills longer packets to the heap.  Every operation must behave the same
// on both sides of that line and when it carries a packet across it:
// construction, copy and move (both construct and assign, self-assignment
// included), resize, same_bytes, and the bounds checks of byte access and
// bit access, which must stop at size() even where the inline buffer would
// let a read through.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "packet/packet.h"
#include "util/bitvec.h"

namespace {

using ndb::packet::Packet;
using ndb::util::Bitvec;

constexpr std::size_t kInline = Packet::kInlineBytes;
constexpr std::size_t kSizes[] = {0, kInline - 1, kInline, kInline + 1, 1500};

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t salt) {
    std::vector<std::uint8_t> bytes(n);
    for (std::size_t i = 0; i < n; ++i) {
        bytes[i] = static_cast<std::uint8_t>(i * 31 + salt);
    }
    return bytes;
}

// `n` pattern bytes, with `salt` as the meta id too so copies of the meta
// can be told apart.
Packet make(std::size_t n, std::uint8_t salt) {
    Packet p(pattern(n, salt));
    p.meta.id = salt;
    return p;
}

void expect_holds(const Packet& p, std::size_t n, std::uint8_t salt) {
    ASSERT_EQ(p.size(), n);
    EXPECT_EQ(p.empty(), n == 0);
    const std::vector<std::uint8_t> want = pattern(n, salt);
    EXPECT_TRUE(std::equal(p.data().begin(), p.data().end(), want.begin(), want.end()));
    EXPECT_EQ(p.meta.id, salt);
}

std::string sizes(std::size_t from, std::size_t to) {
    return std::to_string(from) + " -> " + std::to_string(to);
}

TEST(PacketStorage, ConstructsAtEveryBoundarySize) {
    for (const std::size_t n : kSizes) {
        SCOPED_TRACE(n);
        expect_holds(make(n, 7), n, 7);
        const Packet zeros = Packet::zeros(n);
        ASSERT_EQ(zeros.size(), n);
        EXPECT_TRUE(std::all_of(zeros.data().begin(), zeros.data().end(),
                                [](std::uint8_t b) { return b == 0; }));
    }
}

TEST(PacketStorage, CopiesAndMovesAcrossTheInlineBoundary) {
    for (const std::size_t from : kSizes) {
        for (const std::size_t to : kSizes) {
            SCOPED_TRACE(sizes(from, to));
            const Packet src = make(from, 1);

            const Packet copied(src);
            expect_holds(copied, from, 1);
            expect_holds(src, from, 1);

            Packet source = src;
            const Packet moved(std::move(source));
            expect_holds(moved, from, 1);
            EXPECT_TRUE(source.empty());

            // Assignment over a packet of the other size, in both storage
            // directions.
            Packet copy_target = make(to, 2);
            copy_target = src;
            expect_holds(copy_target, from, 1);
            expect_holds(src, from, 1);

            Packet move_target = make(to, 2);
            source = src;
            move_target = std::move(source);
            expect_holds(move_target, from, 1);
            EXPECT_TRUE(source.empty());

            // A moved-from packet takes new bytes like any other.
            source = make(to, 3);
            expect_holds(source, to, 3);
        }
    }
}

TEST(PacketStorage, SelfAssignmentKeepsTheBytes) {
    for (const std::size_t n : kSizes) {
        SCOPED_TRACE(n);
        Packet p = make(n, 4);
        Packet& alias = p;
        p = alias;
        expect_holds(p, n, 4);
        p = std::move(alias);
        expect_holds(p, n, 4);
    }
}

TEST(PacketStorage, ResizeZeroFillsAcrossTheBoundaryAndShrinksBack) {
    for (const std::size_t from : kSizes) {
        for (const std::size_t to : kSizes) {
            SCOPED_TRACE(sizes(from, to));
            const std::vector<std::uint8_t> want = pattern(from, 5);
            const std::size_t kept = std::min(from, to);
            Packet p = make(from, 5);

            p.resize(to);
            ASSERT_EQ(p.size(), to);
            EXPECT_TRUE(std::equal(p.data().begin(), p.data().begin() + kept, want.begin()));
            EXPECT_TRUE(std::all_of(p.data().begin() + kept, p.data().end(),
                                    [](std::uint8_t b) { return b == 0; }));

            p.resize(from);
            ASSERT_EQ(p.size(), from);
            EXPECT_TRUE(std::equal(p.data().begin(), p.data().begin() + kept, want.begin()));
            EXPECT_TRUE(std::all_of(p.data().begin() + kept, p.data().end(),
                                    [](std::uint8_t b) { return b == 0; }));
            EXPECT_EQ(p.meta.id, 5u);
        }
    }
}

TEST(PacketStorage, SameBytesComparesSizeAndContentNotMeta) {
    for (const std::size_t n : kSizes) {
        SCOPED_TRACE(n);
        const Packet a = make(n, 6);
        Packet b = make(n, 6);
        b.meta.id = 99;
        EXPECT_TRUE(a.same_bytes(b));
        EXPECT_TRUE(b.same_bytes(a));

        Packet longer = a;
        longer.resize(n + 1);  // one more (zero) byte
        EXPECT_FALSE(a.same_bytes(longer));
        EXPECT_FALSE(longer.same_bytes(a));
        if (n == 0) continue;
        for (const std::size_t at : {std::size_t{0}, n - 1}) {
            Packet flipped = a;
            flipped.set_byte(at, static_cast<std::uint8_t>(flipped.byte(at) ^ 0x80));
            EXPECT_FALSE(a.same_bytes(flipped)) << "byte " << at;
        }
    }
}

TEST(PacketStorage, ByteAccessThrowsAtSize) {
    for (const std::size_t n : kSizes) {
        SCOPED_TRACE(n);
        Packet p = make(n, 8);
        EXPECT_THROW((void)p.byte(n), std::out_of_range);
        EXPECT_THROW(p.set_byte(n, 0xab), std::out_of_range);
        expect_holds(p, n, 8);  // the refused write changed nothing
        if (n == 0) continue;
        EXPECT_EQ(p.byte(n - 1), pattern(n, 8)[n - 1]);
        p.set_byte(n - 1, 0xab);
        EXPECT_EQ(p.byte(n - 1), 0xab);
    }
}

TEST(PacketStorage, BitAccessStopsAtTheLastBit) {
    for (const std::size_t n : kSizes) {
        SCOPED_TRACE(n);
        Packet p = Packet::zeros(n);
        const std::size_t end = 8 * n;
        EXPECT_THROW((void)p.extract_bits(end, 1), std::out_of_range);
        EXPECT_THROW(p.deposit_bits(end, Bitvec(1, 1)), std::out_of_range);
        if (n == 0) continue;

        // The last byte, read and written through the <= 64-bit path.
        p.deposit_bits(end - 8, Bitvec(8, 0xa5));
        EXPECT_EQ(p.byte(n - 1), 0xa5);
        EXPECT_EQ(p.extract_bits(end - 8, 8).to_u64(), 0xa5u);
        EXPECT_EQ(p.extract_bits(end - 1, 1).to_u64(), 1u);
        // One bit past it.
        EXPECT_THROW((void)p.extract_bits(end - 7, 8), std::out_of_range);
        EXPECT_THROW(p.deposit_bits(end - 7, Bitvec(8, 0xff)), std::out_of_range);
        EXPECT_EQ(p.byte(n - 1), 0xa5);

        if (n < 9) continue;
        // The same through the > 64-bit path: 72 bits ending at the last bit.
        const Bitvec wide = Bitvec::ones(72);
        p.deposit_bits(end - 72, wide);
        EXPECT_EQ(p.extract_bits(end - 72, 72), wide);
        EXPECT_THROW((void)p.extract_bits(end - 71, 72), std::out_of_range);
        EXPECT_THROW(p.deposit_bits(end - 71, Bitvec(72)), std::out_of_range);
        EXPECT_EQ(p.extract_bits(end - 72, 72), wide);
    }
}

}  // namespace
