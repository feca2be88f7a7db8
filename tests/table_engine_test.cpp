// Differential property tests for the production table engines: for random
// insert/lookup/clear sequences, the exact/LPM/ternary engines must agree
// operation-for-operation with a naive reference -- including the
// ternary_priority_inverted quirk and capacity (table_size_clamp style)
// limits.  Exact and ternary have naive twins; the LPM trie is checked
// against the naive ternary engine fed each prefix as its ternary row.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "dataplane/tables.h"
#include "util/random.h"

namespace {

using namespace ndb;
using dataplane::ActionRef;
using dataplane::InsertStatus;
using dataplane::MatchEngine;
using dataplane::TableEntry;
using util::Bitvec;
using util::Rng;

Bitvec random_value(Rng& rng, int width) {
    Bitvec v(width);
    for (int i = 0; i < width; i += 64) {
        const int chunk = std::min(64, width - i);
        const std::uint64_t bits = rng.next_u64();
        for (int b = 0; b < chunk; ++b) {
            if ((bits >> b) & 1) v.set_bit(i + b, true);
        }
    }
    return v;
}

// Key layouts under test: a mix of single- and multi-element keys, narrow
// and wider than one machine word.
struct KeyShape {
    std::vector<int> widths;
    int total() const {
        int t = 0;
        for (const int w : widths) t += w;
        return t;
    }
};

const std::vector<KeyShape> kShapes = {
    {{16}}, {{48}}, {{9, 16, 7}}, {{48, 48, 32, 32, 8}},  // 168-bit wide_match-like
};

std::vector<Bitvec> random_keys(Rng& rng, const KeyShape& shape) {
    std::vector<Bitvec> keys;
    keys.reserve(shape.widths.size());
    for (const int w : shape.widths) {
        // Small value space so operations collide often (dups, repeat hits).
        if (rng.next_bool(0.5)) {
            keys.push_back(Bitvec(w, rng.next_below(16)));
        } else {
            keys.push_back(random_value(rng, w));
        }
    }
    return keys;
}

void expect_same_lookup(const MatchEngine& engine, const MatchEngine& naive,
                        std::span<const Bitvec> keys, const char* what) {
    const std::optional<ActionRef> a = engine.lookup(keys);
    const std::optional<ActionRef> b = naive.lookup(keys);
    ASSERT_EQ(a.has_value(), b.has_value()) << what << ": hit/miss disagreement";
    if (a && b) {
        EXPECT_EQ(a->action_id, b->action_id) << what;
        EXPECT_EQ(a->args.size(), b->args.size()) << what;
        for (std::size_t i = 0; i < a->args.size() && i < b->args.size(); ++i) {
            EXPECT_EQ(a->args[i], b->args[i]) << what;
        }
    }
}

// LPM's definition as a ternary row: the mask keeps the top `prefix_len`
// bits and the priority is `prefix_len`, so the longest matching prefix is
// the highest-priority matching row.
TableEntry as_ternary_row(const TableEntry& lpm, int width) {
    TableEntry row = lpm;
    row.key_masks = {Bitvec::ones(width).shl(width - lpm.prefix_len)};
    row.priority = lpm.prefix_len;
    row.prefix_len = -1;
    return row;
}

// With `lpm` set, prefixes go to `engine` as LPM entries and to `naive`
// (a naive ternary engine) as their ternary rows.
void drive_pair(MatchEngine& engine, MatchEngine& naive, Rng& rng,
                const KeyShape& shape, bool lpm, bool ternary, const char* what) {
    for (int op = 0; op < 600; ++op) {
        TableEntry e;
        e.key_values = random_keys(rng, shape);
        if (lpm) {
            e.prefix_len = static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(shape.total()) + 1));
        }
        if (ternary) {
            if (rng.next_bool(0.7)) {
                for (const int w : shape.widths) {
                    // Byte-ish masks make overlapping rows likely.
                    e.key_masks.push_back(
                        rng.next_bool(0.3) ? Bitvec::ones(w) : random_value(rng, w));
                }
            }
            e.priority = static_cast<int>(rng.next_below(6));
        }
        e.action_id = static_cast<int>(rng.next_below(8));
        e.action_args = {Bitvec(9, rng.next_below(4))};
        const TableEntry ref = lpm ? as_ternary_row(e, shape.total()) : e;

        if (rng.next_double() < 0.45) {
            EXPECT_EQ(engine.insert(e), naive.insert(ref)) << what << " op " << op;
        } else {
            expect_same_lookup(engine, naive, e.key_values, what);
        }
        ASSERT_EQ(engine.entry_count(), naive.entry_count()) << what << " op " << op;
    }
    // Final sweep: a fresh batch of probes against the settled tables.
    for (int probe = 0; probe < 200; ++probe) {
        const auto keys = random_keys(rng, shape);
        expect_same_lookup(engine, naive, keys, what);
    }
}

TEST(TableEngineDifferential, ExactMatchesNaive) {
    for (const auto& shape : kShapes) {
        for (const std::size_t capacity : {4ul, 1024ul}) {
            Rng rng(shape.total() * 1000 + capacity);
            auto indexed = dataplane::make_exact_engine(shape.total(), capacity);
            auto naive = dataplane::make_naive_exact_engine(shape.total(), capacity);
            drive_pair(*indexed, *naive, rng, shape, false, false, "exact");
        }
    }
}

TEST(TableEngineDifferential, LpmMatchesNaive) {
    // LPM tables have a single key element.  Keys of at most 64 bits walk
    // the trie as one word, wider ones bit by bit from the Bitvec: both
    // sides of that line, and the narrowest key.
    for (const int width : {1, 16, 32, 48, 64, 65}) {
        for (const std::size_t capacity : {4ul, 1024ul}) {
            Rng rng(width * 1000 + capacity);
            const KeyShape shape{{width}};
            auto trie = dataplane::make_lpm_engine(width, capacity);
            auto naive = dataplane::make_naive_ternary_engine(width, capacity,
                                                              /*inverted=*/false);
            drive_pair(*trie, *naive, rng, shape, true, false, "lpm");
        }
    }
}

TEST(TableEngineDifferential, TernaryMatchesNaiveUnderBothPriorityOrders) {
    for (const auto& shape : kShapes) {
        for (const bool inverted : {false, true}) {
            for (const std::size_t capacity : {8ul, 256ul}) {
                Rng rng(shape.total() * 1000 + capacity + (inverted ? 7 : 0));
                auto indexed =
                    dataplane::make_ternary_engine(shape.total(), capacity, inverted);
                auto naive = dataplane::make_naive_ternary_engine(shape.total(),
                                                                  capacity, inverted);
                drive_pair(*indexed, *naive, rng, shape, false, true,
                           inverted ? "ternary(inverted)" : "ternary");
            }
        }
    }
}

// Offers `count` distinct random keys to both engines, each once; statuses
// must agree, table_full included.  Returns the keys offered.
std::vector<std::vector<Bitvec>> offer_distinct(MatchEngine& engine, MatchEngine& naive,
                                                Rng& rng, const KeyShape& shape,
                                                std::size_t count, const char* what) {
    std::unordered_set<Bitvec, util::BitvecHash> seen;
    std::vector<std::vector<Bitvec>> offered;
    while (offered.size() < count) {
        TableEntry e;
        Bitvec image;
        for (const int w : shape.widths) {
            e.key_values.push_back(random_value(rng, w));
            image = Bitvec::concat(image, e.key_values.back());
        }
        if (!seen.insert(image).second) continue;
        e.action_id = static_cast<int>(rng.next_below(8));
        e.action_args = {Bitvec(9, rng.next_below(512))};
        EXPECT_EQ(engine.insert(e), naive.insert(e)) << what << " key " << offered.size();
        offered.push_back(std::move(e.key_values));
    }
    return offered;
}

TEST(TableEngineDifferential, ClearResetsBothFamilies) {
    {
        const KeyShape shape{{32}};
        Rng rng(99);
        auto indexed = dataplane::make_exact_engine(32, 64);
        auto naive = dataplane::make_naive_exact_engine(32, 64);
        drive_pair(*indexed, *naive, rng, shape, false, false, "pre-clear");
        indexed->clear();
        naive->clear();
        EXPECT_EQ(indexed->entry_count(), 0u);
        EXPECT_EQ(naive->entry_count(), 0u);
        drive_pair(*indexed, *naive, rng, shape, false, false, "post-clear");
    }
    // Every key shape at a small and a large capacity: a first fill, then
    // three clear -> refill cycles that each offer more distinct keys than
    // the one before, so an index kept across clear() must grow past its
    // old size, and the last cycle runs into table_full.
    for (const auto& shape : kShapes) {
        for (const std::size_t capacity : {64ul, 4096ul}) {
            SCOPED_TRACE(testing::Message() << shape.total() << "-bit key, capacity "
                                            << capacity);
            Rng rng(shape.total() * 1000 + capacity + 99);
            auto indexed = dataplane::make_exact_engine(shape.total(), capacity);
            auto naive = dataplane::make_naive_exact_engine(shape.total(), capacity);
            std::vector<std::vector<Bitvec>> offered = offer_distinct(
                *indexed, *naive, rng, shape, capacity * 3 / 16, "fill");
            for (const std::size_t count :
                 {capacity * 3 / 8, capacity * 3 / 4, capacity * 5 / 4}) {
                indexed->clear();
                naive->clear();
                ASSERT_EQ(indexed->entry_count(), 0u);
                ASSERT_EQ(naive->entry_count(), 0u);
                // Before any insert, nothing offered before the clear hits.
                for (const auto& keys : offered) {
                    ASSERT_FALSE(indexed->lookup(keys).has_value());
                    ASSERT_FALSE(naive->lookup(keys).has_value());
                }
                const std::vector<std::vector<Bitvec>> previous = std::move(offered);
                offered = offer_distinct(*indexed, *naive, rng, shape, count, "refill");
                ASSERT_EQ(indexed->entry_count(), std::min(count, capacity));
                ASSERT_EQ(naive->entry_count(), indexed->entry_count());
                for (const auto& keys : offered) {
                    expect_same_lookup(*indexed, *naive, keys, "refilled key");
                }
                for (const auto& keys : previous) {
                    expect_same_lookup(*indexed, *naive, keys, "pre-clear key");
                }
                // Offered again: duplicate when installed, else table_full.
                for (std::size_t i = 0; i < offered.size(); i += 7) {
                    TableEntry again;
                    again.key_values = offered[i];
                    again.action_id = 1;
                    EXPECT_EQ(indexed->insert(again), naive->insert(again))
                        << "re-offered key " << i;
                }
            }
            indexed->clear();
            naive->clear();
            drive_pair(*indexed, *naive, rng, shape, false, false, "post-clear");
        }
    }
}

TEST(TableEngineDifferential, ReshapeActsLikeAFreshEngine) {
    // A TableSet hands its engines from one program's tables to the next
    // with reshape().  Each family, driven at one key shape, reshaped to
    // another width and capacity, and driven again, must agree with its
    // reference reshaped the same way: no entry, width or capacity of the
    // earlier shape may survive.  The reshapes go wide -> narrow (with a
    // capacity small enough to fill) -> wide.
    struct Step {
        KeyShape shape;
        std::size_t capacity;
    };
    const std::vector<Step> exact_steps = {
        {kShapes[3], 1024}, {kShapes[0], 4}, {kShapes[2], 256}};
    const std::vector<Step> lpm_steps = {{{{48}}, 1024}, {{{16}}, 4}, {{{32}}, 256}};
    for (const int family : {0, 1, 2}) {  // exact, lpm, ternary
        SCOPED_TRACE(family);
        const std::vector<Step>& steps = family == 1 ? lpm_steps : exact_steps;
        const int width = steps[0].shape.total();
        const std::size_t capacity = steps[0].capacity;
        std::unique_ptr<MatchEngine> engine =
            family == 0 ? dataplane::make_exact_engine(width, capacity)
            : family == 1 ? dataplane::make_lpm_engine(width, capacity)
                          : dataplane::make_ternary_engine(width, capacity, false);
        std::unique_ptr<MatchEngine> naive =
            family == 0 ? dataplane::make_naive_exact_engine(width, capacity)
                        : dataplane::make_naive_ternary_engine(width, capacity, false);
        Rng rng(4242 + static_cast<std::uint64_t>(family));
        for (std::size_t i = 0; i < steps.size(); ++i) {
            if (i > 0) {
                engine->reshape(steps[i].shape.total(), steps[i].capacity);
                naive->reshape(steps[i].shape.total(), steps[i].capacity);
                ASSERT_EQ(engine->entry_count(), 0u);
                ASSERT_EQ(naive->entry_count(), 0u);
            }
            drive_pair(*engine, *naive, rng, steps[i].shape, family == 1, family == 2,
                       "reshaped");
        }
    }
}

TEST(TableEngineDifferential, TernaryTieBreaksOnInsertionOrder) {
    // Two overlapping rows with equal priority: the first inserted must win
    // in both families, under both priority orders.
    for (const bool inverted : {false, true}) {
        for (auto make : {dataplane::make_ternary_engine,
                          dataplane::make_naive_ternary_engine}) {
            auto eng = make(16, 8, inverted);
            TableEntry first;
            first.key_values = {Bitvec(16, 0x1200)};
            first.key_masks = {Bitvec(16, 0xff00)};
            first.priority = 3;
            first.action_id = 1;
            TableEntry second;
            second.key_values = {Bitvec(16, 0x0034)};
            second.key_masks = {Bitvec(16, 0x00ff)};
            second.priority = 3;
            second.action_id = 2;
            ASSERT_EQ(eng->insert(first), InsertStatus::ok);
            ASSERT_EQ(eng->insert(second), InsertStatus::ok);
            const std::vector<Bitvec> probe = {Bitvec(16, 0x1234)};  // matches both
            const std::optional<ActionRef> hit = eng->lookup(probe);
            ASSERT_TRUE(hit.has_value());
            EXPECT_EQ(hit->action_id, 1) << "inverted=" << inverted;
        }
    }
}

TEST(TableEngineDifferential, InsertBatchEqualsAnInsertLoop) {
    // insert_batch() is an insert() of each entry in turn.  Each family gets
    // one stream of entries over a small key space (so a batch holds
    // duplicates of itself and of earlier batches) and a capacity the stream
    // overflows (so batches run into table_full).  One engine inserts the
    // stream entry by entry; a twin takes it in batches of 1 to 150 entries,
    // across the exact engine's 64-entry chunks; a third takes it in one
    // call, so a fresh exact engine's index grows from 16 slots several
    // times within the batch.  Statuses, counts and lookups must agree.
    struct Family {
        const char* name;
        std::unique_ptr<MatchEngine> (*make)(int width, std::size_t capacity);
        bool lpm;
        bool ternary;
    };
    const std::vector<Family> families = {
        {"exact", [](int w, std::size_t c) { return dataplane::make_exact_engine(w, c); },
         false, false},
        {"lpm", [](int w, std::size_t c) { return dataplane::make_lpm_engine(w, c); }, true,
         false},
        {"ternary",
         [](int w, std::size_t c) { return dataplane::make_ternary_engine(w, c, false); },
         false, true},
        {"ternary(inverted)",
         [](int w, std::size_t c) { return dataplane::make_ternary_engine(w, c, true); },
         false, true},
        {"naive exact",
         [](int w, std::size_t c) { return dataplane::make_naive_exact_engine(w, c); },
         false, false},
        {"naive ternary",
         [](int w, std::size_t c) {
             return dataplane::make_naive_ternary_engine(w, c, false);
         },
         false, true},
    };
    const std::vector<KeyShape> lpm_shapes = {{{32}}, {{65}}};
    for (const Family& family : families) {
        for (const KeyShape& shape : family.lpm ? lpm_shapes : kShapes) {
            for (const std::size_t capacity : {48ul, 4096ul}) {
                SCOPED_TRACE(testing::Message() << family.name << ", " << shape.total()
                                                << "-bit key, capacity " << capacity);
                Rng rng(shape.total() * 1000 + capacity + 17);
                std::vector<TableEntry> entries(600);
                for (std::size_t i = 0; i < entries.size(); ++i) {
                    TableEntry& e = entries[i];
                    if (i > 0 && rng.next_bool(0.15)) {
                        // The key of one of the last few entries, so most
                        // of these repeat a key within their own batch.
                        const TableEntry& earlier =
                            entries[i - 1 - rng.next_below(std::min<std::size_t>(i, 8))];
                        e.key_values = earlier.key_values;
                        e.key_masks = earlier.key_masks;
                        e.prefix_len = earlier.prefix_len;
                    } else {
                        e.key_values = random_keys(rng, shape);
                        if (family.lpm) {
                            e.prefix_len = static_cast<int>(rng.next_below(
                                static_cast<std::uint64_t>(shape.total()) + 1));
                        }
                        if (family.ternary && rng.next_bool(0.7)) {
                            for (const int w : shape.widths) {
                                e.key_masks.push_back(rng.next_bool(0.3)
                                                          ? Bitvec::ones(w)
                                                          : random_value(rng, w));
                            }
                        }
                    }
                    e.priority = static_cast<int>(rng.next_below(6));
                    e.action_id = static_cast<int>(rng.next_below(8));
                    e.action_args = {Bitvec(9, rng.next_below(512))};
                }
                const int width = shape.total();
                auto one = family.make(width, capacity);
                auto batched = family.make(width, capacity);
                auto whole = family.make(width, capacity);
                std::vector<InsertStatus> expected;
                for (const TableEntry& e : entries) expected.push_back(one->insert(e));
                std::vector<InsertStatus> got(entries.size(), InsertStatus::bad_entry);
                for (std::size_t at = 0; at < entries.size();) {
                    const std::size_t n =
                        std::min<std::size_t>(1 + rng.next_below(150), entries.size() - at);
                    batched->insert_batch({entries.data() + at, n}, {got.data() + at, n});
                    at += n;
                }
                std::vector<InsertStatus> got_whole(entries.size(), InsertStatus::bad_entry);
                whole->insert_batch(entries, got_whole);
                EXPECT_EQ(got, expected);
                EXPECT_EQ(got_whole, expected);
                EXPECT_NE(std::count(expected.begin(), expected.end(), InsertStatus::duplicate),
                          0);
                if (capacity == 48) {
                    EXPECT_NE(std::count(expected.begin(), expected.end(),
                                         InsertStatus::table_full),
                              0);
                }
                ASSERT_EQ(batched->entry_count(), one->entry_count());
                ASSERT_EQ(whole->entry_count(), one->entry_count());
                for (const TableEntry& e : entries) {
                    expect_same_lookup(*batched, *one, e.key_values, family.name);
                    expect_same_lookup(*whole, *one, e.key_values, family.name);
                }
                for (int probe = 0; probe < 200; ++probe) {
                    const auto keys = random_keys(rng, shape);
                    expect_same_lookup(*batched, *one, keys, family.name);
                    expect_same_lookup(*whole, *one, keys, family.name);
                }
            }
        }
    }
}

}  // namespace
