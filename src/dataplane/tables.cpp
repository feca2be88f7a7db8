#include "dataplane/tables.h"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "obs/metrics.h"

namespace ndb::dataplane {

const char* insert_status_name(InsertStatus status) {
    switch (status) {
        case InsertStatus::ok: return "ok";
        case InsertStatus::table_full: return "table_full";
        case InsertStatus::duplicate: return "duplicate";
        case InsertStatus::bad_entry: return "bad_entry";
    }
    return "?";
}

namespace {

Bitvec concat_keys(std::span<const Bitvec> keys) {
    Bitvec out;
    for (const auto& k : keys) out = Bitvec::concat(out, k);
    return out;
}

// --- packed key image ---------------------------------------------------------
//
// Little-endian word image of the concatenated key elements (first element
// in the high-order bits), truncated/zero-extended to the table's total key
// width -- exactly concat_keys(keys).resize(total_width), but built on the
// stack with no Bitvec temporaries.  Keys up to kInlineWords*64 bits
// (everything in the catalogue) never allocate.
class PackedKey {
public:
    static int words_for(int width) { return width <= 64 ? 1 : (width + 63) / 64; }

    void pack(std::span<const Bitvec> keys, int total_width) {
        nwords_ = words_for(total_width);
        pack_into(keys, total_width, data());
    }

    // The image of `keys` written to `w`, words_for(total_width) words.
    static void pack_into(std::span<const Bitvec> keys, int total_width,
                          std::uint64_t* w) {
        const int nwords = words_for(total_width);
        for (int i = 0; i < nwords; ++i) w[i] = 0;
        // Last key occupies the low bits: walk the elements back to front.
        int bitpos = 0;
        for (std::size_t k = keys.size(); k-- > 0;) {
            const Bitvec& key = keys[k];
            const auto src = key.word_span();
            const int off = bitpos % 64;
            for (std::size_t i = 0; i < src.size(); ++i) {
                const int base = bitpos / 64 + static_cast<int>(i);
                if (base < nwords) w[base] |= src[i] << off;
                if (off != 0 && base + 1 < nwords) {
                    w[base + 1] |= src[i] >> (64 - off);
                }
            }
            bitpos += key.width();
        }
        const int rem = total_width % 64;
        if (rem != 0) w[nwords - 1] &= ~0ull >> (64 - rem);
    }

    // In-place AND with a mask image of the same word count.
    void band_with(const PackedKey& mask) {
        std::uint64_t* w = data();
        const std::uint64_t* m = mask.data();
        for (int i = 0; i < nwords_; ++i) w[i] &= m[i];
    }

    std::span<const std::uint64_t> words() const {
        return {data(), static_cast<std::size_t>(nwords_)};
    }

    bool operator==(const PackedKey& o) const {
        if (nwords_ != o.nwords_) return false;
        const std::uint64_t* a = data();
        const std::uint64_t* b = o.data();
        for (int i = 0; i < nwords_; ++i) {
            if (a[i] != b[i]) return false;
        }
        return true;
    }

    std::size_t hash() const { return hash_words(words()); }

    // The hash of a key image; the exact engine's index rehashes stored
    // images with it.
    static std::size_t hash_words(std::span<const std::uint64_t> words) {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (const std::uint64_t w : words) {
            h ^= w;
            h *= 0x100000001b3ull;
            h ^= h >> 29;
        }
        // Full-avalanche finalizer (murmur3 fmix64).  A multiply only
        // carries bits upward, so without it keys that differ only above
        // their low ~16 bits (a /16 network, a field with constant low
        // bits) share the low hash bits the exact index picks slots by, and
        // linear probing degenerates into one long cluster.
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
        h *= 0xc4ceb9fe1a85ec53ull;
        h ^= h >> 33;
        return h;
    }

private:
    static constexpr int kInlineWords = 4;

    std::uint64_t* data() {
        if (nwords_ > kInlineWords && wide_.size() < static_cast<std::size_t>(nwords_)) {
            wide_.resize(static_cast<std::size_t>(nwords_));
        }
        return nwords_ <= kInlineWords ? inline_.data() : wide_.data();
    }
    const std::uint64_t* data() const {
        return nwords_ <= kInlineWords ? inline_.data() : wide_.data();
    }

    std::array<std::uint64_t, kInlineWords> inline_{};
    std::vector<std::uint64_t> wide_;  // only for keys wider than 256 bits
    int nwords_ = 1;
};

// An entry's action as the indexed engines store it: the action id plus its
// arguments' place in the engine's one shared argument array, which clear()
// truncates but keeps allocated, so refilling a table allocates nothing.
struct StoredAction {
    int action_id = 0;
    std::uint32_t first_arg = 0;  // index into the engine's argument array
    std::uint32_t arg_count = 0;
};

StoredAction store_action(const TableEntry& entry, std::vector<Bitvec>& args) {
    const StoredAction stored{entry.action_id, static_cast<std::uint32_t>(args.size()),
                              static_cast<std::uint32_t>(entry.action_args.size())};
    args.insert(args.end(), entry.action_args.begin(), entry.action_args.end());
    return stored;
}

ActionRef action_ref(const StoredAction& a, const std::vector<Bitvec>& args) {
    return {a.action_id, {args.data() + a.first_arg, a.arg_count}};
}

// --- indexed exact ------------------------------------------------------------

// Entries live once each, in insertion order, in flat arrays: the packed key
// words (words_ per entry), the action values and one shared argument array.
// An open-addressing index of 8-byte slots -- power-of-two size, linear
// probing, load factor <= 0.7 -- maps a key to its entry: a slot holds the
// high half of the key hash as a tag and the entry number + 1 (0 = empty),
// and its position comes from the hash's low bits.  At 65,536 entries the
// index is 1 MiB, and the tag rejects almost every non-matching slot before
// the key words are read.
//
// clear() zeroes the index and truncates the arrays but keeps all their
// capacity, so refilling a table after a same-image reload neither regrows
// the index nor allocates.
//
// A large table's index outgrows the caches, so each insert's probe waits
// on a random slot.  insert_batch() therefore packs and hashes up to
// kChunk keys first, then places them in order while prefetching the slot
// of the entry kPrefetchDistance places ahead.  insert() packs its one key
// on the stack and places it with the same body, place().
class IndexedExactEngine final : public MatchEngine {
public:
    IndexedExactEngine(int total_width, std::size_t capacity)
        : total_width_(total_width),
          words_(static_cast<std::size_t>(PackedKey::words_for(total_width))),
          capacity_(capacity),
          index_(kMinSlots),
          mask_(kMinSlots - 1) {}

    InsertStatus insert(const TableEntry& entry) override {
        PackedKey key;
        key.pack(entry.key_values, total_width_);
        return place(entry, key.words(), key.hash());
    }

    void insert_batch(std::span<const TableEntry> entries,
                      std::span<InsertStatus> statuses) override {
        for (std::size_t at = 0; at < entries.size(); at += kChunk) {
            const std::size_t n = std::min(kChunk, entries.size() - at);
            chunk_keys_.resize(n * words_);
            for (std::size_t i = 0; i < n; ++i) {
                std::uint64_t* kw = chunk_keys_.data() + i * words_;
                PackedKey::pack_into(entries[at + i].key_values, total_width_, kw);
                chunk_hashes_[i] = PackedKey::hash_words({kw, words_});
            }
            for (std::size_t i = 0; i < std::min(kPrefetchDistance, n); ++i) {
                prefetch_slot(chunk_hashes_[i]);
            }
            for (std::size_t i = 0; i < n; ++i) {
                if (i + kPrefetchDistance < n) {
                    prefetch_slot(chunk_hashes_[i + kPrefetchDistance]);
                }
                statuses[at + i] = place(entries[at + i],
                                         {chunk_keys_.data() + i * words_, words_},
                                         chunk_hashes_[i]);
            }
        }
    }

    std::optional<ActionRef> lookup(std::span<const Bitvec> keys) const override {
        if (values_.empty()) return std::nullopt;
        PackedKey key;
        key.pack(keys, total_width_);
        std::size_t pos = 0;
        if (!probe(key.words(), key.hash(), pos)) return std::nullopt;
        return action_ref(values_[index_[pos].entry - 1], args_);
    }

    std::size_t entry_count() const override { return values_.size(); }

    void clear() override {
        if (values_.empty()) return;
        std::fill(index_.begin(), index_.end(), Slot{});
        keys_.clear();
        values_.clear();
        args_.clear();
    }

    // The index keeps the size it grew to.
    void reshape(int width, std::size_t capacity) override {
        clear();
        total_width_ = width;
        words_ = static_cast<std::size_t>(PackedKey::words_for(width));
        capacity_ = capacity;
    }

private:
    static constexpr std::size_t kMinSlots = 16;
    // Keys packed and hashed ahead of their inserts, and how far ahead of
    // its probe an index slot is prefetched.
    static constexpr std::size_t kChunk = 64;
    static constexpr std::size_t kPrefetchDistance = 8;

    struct Slot {
        std::uint32_t tag = 0;
        std::uint32_t entry = 0;  // entry number + 1; 0 = empty
    };

    static std::uint32_t tag_of(std::size_t h) {
        return static_cast<std::uint32_t>(h >> 32);
    }

    // The slot a probe for hash `h` starts at, fetched for writing.  If the
    // index grows before the probe, the hint was merely wasted.
    void prefetch_slot(std::size_t h) const {
        __builtin_prefetch(&index_[h & mask_], 1);
    }

    // The body of every insert: `kw` is the entry's packed key, `h` its hash.
    InsertStatus place(const TableEntry& entry, std::span<const std::uint64_t> kw,
                       std::size_t h) {
        std::size_t pos = 0;
        if (probe(kw, h, pos)) return InsertStatus::duplicate;
        if (values_.size() >= capacity_) return InsertStatus::table_full;
        if ((values_.size() + 1) * 10 >= index_.size() * 7) {
            grow();
            probe(kw, h, pos);  // still absent: finds its slot in the new index
        }
        keys_.insert(keys_.end(), kw.begin(), kw.end());
        values_.push_back(store_action(entry, args_));
        index_[pos] = {tag_of(h), static_cast<std::uint32_t>(values_.size())};
        return InsertStatus::ok;
    }

    std::span<const std::uint64_t> key_of(std::size_t entry) const {
        return {keys_.data() + entry * words_, words_};
    }

    // Walks the probe chain of `key` (hash `h`).  Returns true with `pos`
    // at its slot when the key is present; otherwise false with `pos` at
    // the empty slot that ends the chain.
    bool probe(std::span<const std::uint64_t> key, std::size_t h,
               std::size_t& pos) const {
        const std::uint32_t tag = tag_of(h);
        std::size_t i = h & mask_;
        for (;;) {
            const Slot s = index_[i];
            if (s.entry == 0) break;
            if (s.tag == tag && std::ranges::equal(key_of(s.entry - 1), key)) {
                pos = i;
                return true;
            }
            i = (i + 1) & mask_;
        }
        pos = i;
        return false;
    }

    // Doubles the index and re-places every entry from its stored key words.
    void grow() {
        index_.assign(index_.size() * 2, Slot{});
        mask_ = index_.size() - 1;
        for (std::size_t e = 0; e < values_.size(); ++e) {
            const std::size_t h = PackedKey::hash_words(key_of(e));
            std::size_t i = h & mask_;
            while (index_[i].entry != 0) i = (i + 1) & mask_;
            index_[i] = {tag_of(h), static_cast<std::uint32_t>(e + 1)};
        }
    }

    int total_width_;
    std::size_t words_;  // key words per entry
    std::size_t capacity_;
    std::vector<Slot> index_;
    std::size_t mask_;
    std::vector<std::uint64_t> keys_;
    std::vector<StoredAction> values_;
    std::vector<Bitvec> args_;
    // insert_batch()'s packed keys (words_ per entry) and their hashes.
    std::vector<std::uint64_t> chunk_keys_;
    std::array<std::size_t, kChunk> chunk_hashes_{};
};

// --- lpm ----------------------------------------------------------------------

// Binary trie over the key bits, most significant bit first.  The longest
// prefix on the lookup path wins, so a lookup costs at most key_width node
// steps however many prefixes and distinct lengths the table holds.  A key
// of at most 64 bits is walked as one machine word; wider keys read their
// bits from the Bitvec.
class TrieLpmEngine final : public MatchEngine {
public:
    TrieLpmEngine(int key_width, std::size_t capacity)
        : key_width_(key_width), capacity_(capacity) {
        nodes_.push_back(Node{});  // root
    }

    InsertStatus insert(const TableEntry& entry) override {
        if (entry.key_values.size() != 1 || entry.prefix_len < 0 ||
            entry.prefix_len > key_width_) {
            return InsertStatus::bad_entry;
        }
        if (count_ >= capacity_) return InsertStatus::table_full;
        if (key_width_ <= 64) {
            // A Bitvec keeps the bits above its width zero, so the low word
            // reads as the key resized to key_width_.
            const std::uint64_t value = entry.key_values[0].to_u64();
            return insert_walk(entry, [&](int i) {
                return ((value >> (key_width_ - 1 - i)) & 1) != 0;
            });
        }
        const Bitvec value = entry.key_values[0].resize(key_width_);
        return insert_walk(entry, [&](int i) { return value.bit(key_width_ - 1 - i); });
    }

    std::optional<ActionRef> lookup(std::span<const Bitvec> keys) const override {
        if (keys.size() != 1) return std::nullopt;
        if (key_width_ <= 64) {
            const std::uint64_t key = keys[0].to_u64();
            return lookup_walk([&](int i) { return ((key >> (key_width_ - 1 - i)) & 1) != 0; });
        }
        const Bitvec key = keys[0].resize(key_width_);
        return lookup_walk([&](int i) { return key.bit(key_width_ - 1 - i); });
    }

    std::size_t entry_count() const override { return count_; }

    void clear() override {
        nodes_.clear();
        nodes_.push_back(Node{});
        args_.clear();
        count_ = 0;
    }

    void reshape(int width, std::size_t capacity) override {
        clear();
        key_width_ = width;
        capacity_ = capacity;
    }

private:
    struct Node {
        std::size_t zero = 0;  // 0 = absent (root is never a child)
        std::size_t one = 0;
        StoredAction action;  // meaningful when has_entry
        bool has_entry = false;
    };

    // insert() and lookup() past their checks; `bit_at(i)` is the key's bit
    // at depth i, most significant first.
    template <class BitAt>
    InsertStatus insert_walk(const TableEntry& entry, BitAt bit_at) {
        std::size_t node = 0;
        for (int i = 0; i < entry.prefix_len; ++i) {
            const bool bit = bit_at(i);
            const std::size_t child = bit ? nodes_[node].one : nodes_[node].zero;
            if (child == 0) {
                const std::size_t fresh = nodes_.size();
                nodes_.push_back(Node{});
                if (bit) {
                    nodes_[node].one = fresh;
                } else {
                    nodes_[node].zero = fresh;
                }
                node = fresh;
            } else {
                node = child;
            }
        }
        if (nodes_[node].has_entry) return InsertStatus::duplicate;
        nodes_[node].action = store_action(entry, args_);
        nodes_[node].has_entry = true;
        ++count_;
        return InsertStatus::ok;
    }

    template <class BitAt>
    std::optional<ActionRef> lookup_walk(BitAt bit_at) const {
        const Node* best = nullptr;
        std::size_t node = 0;
        if (nodes_[0].has_entry) best = &nodes_[0];
        for (int i = 0; i < key_width_; ++i) {
            const std::size_t child = bit_at(i) ? nodes_[node].one : nodes_[node].zero;
            if (child == 0) break;
            node = child;
            if (nodes_[node].has_entry) best = &nodes_[node];
        }
        if (!best) return std::nullopt;
        return action_ref(best->action, args_);
    }

    int key_width_;
    std::size_t capacity_;
    std::vector<Node> nodes_;
    std::vector<Bitvec> args_;
    std::size_t count_ = 0;
};

// --- indexed ternary ----------------------------------------------------------

// Rows kept sorted best-priority-first (insertion order breaks ties, like
// the naive scan), so a lookup returns the first matching row and exits.
class IndexedTernaryEngine final : public MatchEngine {
public:
    IndexedTernaryEngine(int total_width, std::size_t capacity, bool inverted)
        : total_width_(total_width), capacity_(capacity), inverted_(inverted) {}

    InsertStatus insert(const TableEntry& entry) override {
        if (rows_.size() >= capacity_) return InsertStatus::table_full;
        Row row;
        make_row_key(entry, row.value, row.mask);
        for (const auto& existing : rows_) {
            if (existing.value == row.value && existing.mask == row.mask) {
                return InsertStatus::duplicate;
            }
        }
        row.priority = entry.priority;
        row.seq = next_seq_++;
        row.action = store_action(entry, args_);
        const auto pos = std::upper_bound(
            rows_.begin(), rows_.end(), row,
            [this](const Row& a, const Row& b) { return wins(a, b); });
        rows_.insert(pos, std::move(row));
        return InsertStatus::ok;
    }

    std::optional<ActionRef> lookup(std::span<const Bitvec> keys) const override {
        PackedKey key;
        key.pack(keys, total_width_);
        const auto kw = key.words();
        for (const auto& row : rows_) {
            const auto vw = row.value.words();
            const auto mw = row.mask.words();
            bool match = true;
            for (std::size_t i = 0; i < kw.size(); ++i) {
                if ((kw[i] & mw[i]) != vw[i]) {
                    match = false;
                    break;
                }
            }
            if (match) return action_ref(row.action, args_);  // best-first order: done
        }
        return std::nullopt;
    }

    std::size_t entry_count() const override { return rows_.size(); }
    void clear() override {
        rows_.clear();
        args_.clear();
    }
    void reshape(int width, std::size_t capacity) override {
        clear();
        total_width_ = width;
        capacity_ = capacity;
    }

private:
    struct Row {
        PackedKey value;
        PackedKey mask;
        int priority = 0;
        std::uint64_t seq = 0;
        StoredAction action;
    };

    // Strict-weak order: does `a` win over `b`?
    bool wins(const Row& a, const Row& b) const {
        if (a.priority != b.priority) {
            return inverted_ ? a.priority < b.priority : a.priority > b.priority;
        }
        return a.seq < b.seq;  // first-inserted wins ties, like the naive scan
    }

    void make_row_key(const TableEntry& entry, PackedKey& value,
                      PackedKey& mask) const {
        value.pack(entry.key_values, total_width_);
        if (entry.key_masks.empty()) {
            const Bitvec all = Bitvec::ones(total_width_);
            mask.pack(std::span<const Bitvec>(&all, 1), total_width_);
        } else {
            mask.pack(entry.key_masks, total_width_);
        }
        // Pre-mask the value so matching is (key & mask) == value.
        value.band_with(mask);
    }

    int total_width_;
    std::size_t capacity_;
    bool inverted_;
    std::uint64_t next_seq_ = 0;
    std::vector<Row> rows_;
    std::vector<Bitvec> args_;
};

// --- naive exact (reference) --------------------------------------------------

class NaiveExactEngine final : public MatchEngine {
public:
    NaiveExactEngine(int total_width, std::size_t capacity)
        : total_width_(total_width), capacity_(capacity) {}

    InsertStatus insert(const TableEntry& entry) override {
        const Bitvec key = concat_keys(entry.key_values).resize(total_width_);
        if (map_.count(key)) return InsertStatus::duplicate;
        if (map_.size() >= capacity_) return InsertStatus::table_full;
        map_.emplace(key, ActionEntry{entry.action_id, entry.action_args});
        return InsertStatus::ok;
    }

    std::optional<ActionRef> lookup(std::span<const Bitvec> keys) const override {
        const Bitvec key = concat_keys(keys).resize(total_width_);
        const auto it = map_.find(key);
        if (it == map_.end()) return std::nullopt;
        return it->second.ref();
    }

    std::size_t entry_count() const override { return map_.size(); }
    void clear() override { map_.clear(); }
    void reshape(int width, std::size_t capacity) override {
        clear();
        total_width_ = width;
        capacity_ = capacity;
    }

private:
    int total_width_;
    std::size_t capacity_;
    std::unordered_map<Bitvec, ActionEntry, util::BitvecHash> map_;
};

// --- naive ternary (reference) ------------------------------------------------

class NaiveTernaryEngine final : public MatchEngine {
public:
    NaiveTernaryEngine(int total_width, std::size_t capacity, bool inverted)
        : total_width_(total_width), capacity_(capacity), inverted_(inverted) {}

    InsertStatus insert(const TableEntry& entry) override {
        if (entries_.size() >= capacity_) return InsertStatus::table_full;
        Row row;
        row.value = concat_keys(entry.key_values).resize(total_width_);
        if (entry.key_masks.empty()) {
            row.mask = Bitvec::ones(total_width_);
        } else {
            row.mask = concat_keys(entry.key_masks).resize(total_width_);
        }
        row.value = row.value.band(row.mask);
        row.priority = entry.priority;
        row.action = {entry.action_id, entry.action_args};
        for (const auto& existing : entries_) {
            if (existing.value == row.value && existing.mask == row.mask) {
                return InsertStatus::duplicate;
            }
        }
        entries_.push_back(std::move(row));
        return InsertStatus::ok;
    }

    std::optional<ActionRef> lookup(std::span<const Bitvec> keys) const override {
        const Bitvec key = concat_keys(keys).resize(total_width_);
        const Row* best = nullptr;
        for (const auto& row : entries_) {
            if (!key.band(row.mask).eq(row.value)) continue;
            if (!best) {
                best = &row;
            } else if (inverted_ ? row.priority < best->priority
                                 : row.priority > best->priority) {
                best = &row;
            }
        }
        if (!best) return std::nullopt;
        return best->action.ref();
    }

    std::size_t entry_count() const override { return entries_.size(); }
    void clear() override { entries_.clear(); }
    void reshape(int width, std::size_t capacity) override {
        clear();
        total_width_ = width;
        capacity_ = capacity;
    }

private:
    struct Row {
        Bitvec value;
        Bitvec mask;
        int priority = 0;
        ActionEntry action;
    };
    int total_width_;
    std::size_t capacity_;
    bool inverted_;
    std::vector<Row> entries_;
};

}  // namespace

std::unique_ptr<MatchEngine> make_exact_engine(int total_width, std::size_t capacity) {
    return std::make_unique<IndexedExactEngine>(total_width, capacity);
}

std::unique_ptr<MatchEngine> make_lpm_engine(int key_width, std::size_t capacity) {
    return std::make_unique<TrieLpmEngine>(key_width, capacity);
}

std::unique_ptr<MatchEngine> make_ternary_engine(int total_width, std::size_t capacity,
                                                 bool inverted_priority) {
    return std::make_unique<IndexedTernaryEngine>(total_width, capacity,
                                                  inverted_priority);
}

std::unique_ptr<MatchEngine> make_naive_exact_engine(int total_width,
                                                     std::size_t capacity) {
    return std::make_unique<NaiveExactEngine>(total_width, capacity);
}

std::unique_ptr<MatchEngine> make_naive_ternary_engine(int total_width,
                                                       std::size_t capacity,
                                                       bool inverted_priority) {
    return std::make_unique<NaiveTernaryEngine>(total_width, capacity,
                                                inverted_priority);
}

// --- TableSet -------------------------------------------------------------------

void TableSet::load(const p4::ir::Program& prog) {
    if (slots_.size() < prog.tables.size()) slots_.resize(prog.tables.size());
    tables_ = prog.tables.size();
    std::array<std::size_t, 3> taken{};  // engines of each kind handed out
    for (std::size_t i = 0; i < tables_; ++i) {
        const p4::ir::Table& t = prog.tables[i];
        Slot& slot = slots_[i];
        std::size_t cap = static_cast<std::size_t>(std::max<std::int64_t>(t.size, 1));
        if (size_clamp_ > 0) cap = std::min(cap, static_cast<std::size_t>(size_clamp_));
        slot.capacity = cap;
        slot.kind = t.has_lpm()       ? p4::ir::MatchKind::lpm
                    : t.has_ternary() ? p4::ir::MatchKind::ternary
                                      : p4::ir::MatchKind::exact;
        const int width = slot.kind == p4::ir::MatchKind::lpm ? t.keys[0].width
                                                             : t.total_key_width();
        const auto k = static_cast<std::size_t>(slot.kind);
        std::vector<std::unique_ptr<MatchEngine>>& pool = engines_[k];
        if (taken[k] == pool.size()) {
            switch (slot.kind) {
                case p4::ir::MatchKind::exact:
                    pool.push_back(make_exact_engine(width, cap));
                    break;
                case p4::ir::MatchKind::lpm:
                    pool.push_back(make_lpm_engine(width, cap));
                    break;
                case p4::ir::MatchKind::ternary:
                    pool.push_back(make_ternary_engine(width, cap, inverted_priority_));
                    break;
            }
        } else {
            pool[taken[k]]->reshape(width, cap);
        }
        slot.engine = pool[taken[k]++].get();
        slot.declared_default.action_id = t.default_action;
        slot.declared_default.args.assign(t.default_args.begin(), t.default_args.end());
        slot.default_action = slot.declared_default;
        slot.stats = {};
    }
}

TableSet::Slot& TableSet::slot(int table_id) {
    const auto i = static_cast<std::size_t>(table_id);  // -1 wraps high
    if (i >= tables_) throw std::out_of_range("TableSet: table id out of range");
    return slots_[i];
}

const TableSet::Slot& TableSet::slot(int table_id) const {
    return const_cast<TableSet&>(*this).slot(table_id);
}

void TableSet::insert_batch(int table_id, std::span<const TableEntry> entries,
                            std::span<InsertStatus> statuses) {
    slot(table_id).engine->insert_batch(entries, statuses);
}

void TableSet::set_default_action(int table_id, int action_id,
                                  std::span<const Bitvec> args) {
    ActionEntry& entry = slot(table_id).default_action;
    entry.action_id = action_id;
    entry.args.assign(args.begin(), args.end());
}

ActionRef TableSet::lookup(int table_id, std::span<const Bitvec> keys, bool& hit) {
    Slot& slot = this->slot(table_id);
    if (obs::metrics_on()) [[unlikely]] {
        return lookup_timed(slot, keys, hit);
    }
    if (const std::optional<ActionRef> found = slot.engine->lookup(keys)) {
        hit = true;
        ++slot.stats.hits;
        return *found;
    }
    hit = false;
    ++slot.stats.misses;
    return slot.default_action.ref();
}

ActionRef TableSet::lookup_timed(Slot& slot, std::span<const Bitvec> keys, bool& hit) {
    obs::Counter counter = obs::Counter::lookups_exact;
    obs::Hist hist = obs::Hist::lookup_ns_exact;
    switch (slot.kind) {
        case p4::ir::MatchKind::lpm:
            counter = obs::Counter::lookups_lpm;
            hist = obs::Hist::lookup_ns_lpm;
            break;
        case p4::ir::MatchKind::ternary:
            counter = obs::Counter::lookups_ternary;
            hist = obs::Hist::lookup_ns_ternary;
            break;
        case p4::ir::MatchKind::exact:
            break;
    }
    obs::count(counter);
    const bool timed = obs::sample_lookup();
    const std::uint64_t t0 = timed ? obs::now_ns() : 0;
    const std::optional<ActionRef> found = slot.engine->lookup(keys);
    if (timed) obs::record(hist, obs::now_ns() - t0);
    if (found) {
        hit = true;
        ++slot.stats.hits;
        return *found;
    }
    hit = false;
    ++slot.stats.misses;
    return slot.default_action.ref();
}

const TableSet::Stats& TableSet::stats(int table_id) const {
    return slot(table_id).stats;
}

std::size_t TableSet::entry_count(int table_id) const {
    return slot(table_id).engine->entry_count();
}

std::size_t TableSet::capacity(int table_id) const {
    return slot(table_id).capacity;
}

void TableSet::reset_stats() {
    for (std::size_t i = 0; i < tables_; ++i) slots_[i].stats = {};
}

void TableSet::reset() {
    for (std::size_t i = 0; i < tables_; ++i) {
        Slot& slot = slots_[i];
        slot.engine->clear();
        slot.default_action = slot.declared_default;
        slot.stats = {};
    }
}

}  // namespace ndb::dataplane
