#include "core/mutate.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "core/corpus.h"
#include "coverage/coverage.h"
#include "util/random.h"
#include "util/strings.h"

namespace ndb::core {

using util::Bitvec;
using util::Rng;

namespace {

// Decorrelates the mutation-derivation RNG stream from the scenario seed
// stream (both are fed the same slot seeds by the campaign engine).
constexpr std::uint64_t kDeriveSalt = 0x6d75746174652121ull;  // "mutate!!"

struct OpNameEntry {
    MutationOp::Kind kind;
    const char* name;
};

constexpr OpNameEntry kOpNames[] = {
    {MutationOp::Kind::field_flip, "flip"},
    {MutationOp::Kind::field_boundary, "bound"},
    {MutationOp::Kind::packet_byte, "byte"},
    {MutationOp::Kind::config_drop, "cfgdrop"},
    {MutationOp::Kind::config_dup, "cfgdup"},
    {MutationOp::Kind::config_swap, "cfgswap"},
    {MutationOp::Kind::splice, "splice"},
};

using util::parse_u64;

// Lowercase hex image of a byte string (two digits per byte).
std::string hex_encode(std::span<const std::uint8_t> bytes) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (const std::uint8_t b : bytes) {
        out += kDigits[b >> 4];
        out += kDigits[b & 0xf];
    }
    return out;
}

// Strict inverse of hex_encode: non-empty, even length, hex digits only
// (either case).  Anything else is damage and must fail, not round down.
bool hex_decode(std::string_view text, std::vector<std::uint8_t>& out) {
    if (text.empty() || text.size() % 2 != 0) return false;
    out.clear();
    out.reserve(text.size() / 2);
    int acc = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        int digit = 0;
        if (c >= '0' && c <= '9') digit = c - '0';
        else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
        else return false;
        acc = (acc << 4) | digit;
        if (i % 2 == 1) {
            out.push_back(static_cast<std::uint8_t>(acc));
            acc = 0;
        }
    }
    return true;
}

// Adversarial .corpus files must not allocate unboundedly: cap the decoded
// packet at jumbo-frame scale.
constexpr std::size_t kMaxConcolicPacketBytes = 9216;

}  // namespace

const char* mutation_op_name(MutationOp::Kind kind) {
    for (const auto& e : kOpNames) {
        if (e.kind == kind) return e.name;
    }
    return "?";
}

// --- recipe text form ---------------------------------------------------------

std::string MutationRecipe::encode() const {
    std::string out = util::format(
        "%s#%llu", program.c_str(),
        static_cast<unsigned long long>(parent_seed));
    for (const MutationOp& op : ops) {
        out += util::format("|%s:%llu:%llu", mutation_op_name(op.kind),
                            static_cast<unsigned long long>(op.a),
                            static_cast<unsigned long long>(op.b));
    }
    return out;
}

std::optional<MutationRecipe> MutationRecipe::parse(std::string_view text) {
    MutationRecipe recipe;
    std::size_t start = 0;
    bool first = true;
    while (start <= text.size()) {
        const std::size_t bar = text.find('|', start);
        const std::string_view item = text.substr(
            start, bar == std::string_view::npos ? std::string_view::npos
                                                 : bar - start);
        if (first) {
            const std::size_t hash = item.find('#');
            if (hash == std::string_view::npos || hash == 0) return std::nullopt;
            recipe.program = std::string(item.substr(0, hash));
            if (!parse_u64(item.substr(hash + 1), recipe.parent_seed)) {
                return std::nullopt;
            }
            first = false;
        } else {
            // Strictly name:a:b -- the encoder always writes both operands,
            // so a missing one means truncation or hand-editing damage and
            // must fail loudly rather than replay a different mutation.
            const std::size_t c1 = item.find(':');
            if (c1 == std::string_view::npos) return std::nullopt;
            const std::size_t c2 = item.find(':', c1 + 1);
            if (c2 == std::string_view::npos) return std::nullopt;
            MutationOp op;
            const std::string_view name = item.substr(0, c1);
            bool known = false;
            for (const auto& e : kOpNames) {
                if (name == e.name) {
                    op.kind = e.kind;
                    known = true;
                    break;
                }
            }
            if (!known) return std::nullopt;
            if (!parse_u64(item.substr(c1 + 1, c2 - c1 - 1), op.a)) {
                return std::nullopt;
            }
            if (!parse_u64(item.substr(c2 + 1), op.b)) return std::nullopt;
            recipe.ops.push_back(op);
        }
        if (bar == std::string_view::npos) break;
        start = bar + 1;
    }
    if (first) return std::nullopt;  // empty input
    return recipe;
}

// --- concolic recipe text form ------------------------------------------------

std::string ConcolicRecipe::encode() const {
    std::string out = util::format("%s@%llu|port:%u|pkt:%s", program.c_str(),
                                   static_cast<unsigned long long>(slot),
                                   ingress_port, hex_encode(packet).c_str());
    for (const Default& def : defaults) {
        out += util::format("|def:%s:%s", def.table.c_str(), def.action.c_str());
        for (const auto& arg : def.args) {
            out += ':';
            out += hex_encode(arg);
        }
    }
    return out;
}

std::optional<ConcolicRecipe> ConcolicRecipe::parse(std::string_view text) {
    ConcolicRecipe recipe;
    const auto items = util::split(text, '|');
    if (items.empty()) return std::nullopt;

    // Head: "program@slot".  '@' is never part of a MutationRecipe head, so
    // the two parsers reject each other's text by construction.
    const std::string_view head = items[0];
    const std::size_t at = head.find('@');
    if (at == std::string_view::npos || at == 0) return std::nullopt;
    recipe.program = std::string(head.substr(0, at));
    if (!parse_u64(head.substr(at + 1), recipe.slot)) return std::nullopt;
    if (recipe.slot >= coverage::CoverageMap::kSlots) return std::nullopt;

    bool have_port = false;
    bool have_packet = false;
    for (std::size_t i = 1; i < items.size(); ++i) {
        const std::string_view item = items[i];
        const std::size_t colon = item.find(':');
        if (colon == std::string_view::npos) return std::nullopt;
        const std::string_view key = item.substr(0, colon);
        const std::string_view value = item.substr(colon + 1);
        if (key == "port") {
            std::uint64_t port = 0;
            if (have_port || !parse_u64(value, port)) return std::nullopt;
            // kDropPort is the widest legal 9-bit port value.
            if (port > p4::ir::kDropPort) return std::nullopt;
            recipe.ingress_port = static_cast<std::uint32_t>(port);
            have_port = true;
        } else if (key == "pkt") {
            if (have_packet || !hex_decode(value, recipe.packet)) {
                return std::nullopt;
            }
            if (recipe.packet.empty() ||
                recipe.packet.size() > kMaxConcolicPacketBytes) {
                return std::nullopt;
            }
            have_packet = true;
        } else if (key == "def") {
            const auto parts = util::split(value, ':');
            if (parts.size() < 2 || parts[0].empty() || parts[1].empty()) {
                return std::nullopt;
            }
            Default def;
            def.table = parts[0];
            def.action = parts[1];
            for (std::size_t p = 2; p < parts.size(); ++p) {
                std::vector<std::uint8_t> arg;
                if (!hex_decode(parts[p], arg)) return std::nullopt;
                def.args.push_back(std::move(arg));
            }
            // One default per table: two would be a self-contradictory
            // control plane, not a replayable scenario.
            for (const Default& prev : recipe.defaults) {
                if (prev.table == def.table) return std::nullopt;
            }
            recipe.defaults.push_back(std::move(def));
        } else {
            return std::nullopt;  // unknown section key
        }
    }
    if (!have_port || !have_packet) return std::nullopt;
    return recipe;
}

// --- corpus -------------------------------------------------------------------

std::size_t ScenarioCorpus::load_dir(const std::string& dir,
                                     const std::vector<std::string>& programs) {
    CorpusDir read = read_corpus_dir(dir);
    diagnostics_ = std::move(read.diagnostics);
    std::size_t loaded = 0;
    for (const CorpusRecord& rec : read.records) {
        if (std::find(programs.begin(), programs.end(), rec.program) ==
            programs.end()) {
            continue;  // outside this campaign's catalogue slice
        }
        if (add(rec.program, rec.seed, rec.recipe, rec.concolic)) ++loaded;
    }
    return loaded;
}

bool ScenarioCorpus::add(const std::string& program, std::uint64_t seed,
                         const std::string& recipe, bool concolic) {
    const std::string key = util::format(
        "%s#%llu#%s%s", program.c_str(), static_cast<unsigned long long>(seed),
        concolic ? "c!" : "", recipe.c_str());
    if (!keys_.insert(key).second) return false;
    by_program_[program].push_back(CorpusEntry{program, seed, recipe, concolic});
    ++total_;
    return true;
}

const std::vector<CorpusEntry>& ScenarioCorpus::entries(
    const std::string& program) const {
    static const std::vector<CorpusEntry> kEmpty;
    const auto it = by_program_.find(program);
    return it == by_program_.end() ? kEmpty : it->second;
}

// --- mutator ------------------------------------------------------------------

std::size_t Mutator::program_index(const std::string& program) const {
    const auto& programs = gen_->programs();
    const auto it = std::find(programs.begin(), programs.end(), program);
    if (it == programs.end()) {
        throw std::invalid_argument("mutate: recipe names program '" + program +
                                    "' outside the generator's catalogue");
    }
    return static_cast<std::size_t>(it - programs.begin());
}

MutationRecipe Mutator::derive(const ScenarioCorpus& corpus,
                               const CorpusEntry& parent,
                               std::uint64_t seed) const {
    MutationRecipe recipe;
    if (!parent.recipe.empty()) {
        // Chain: extend the mutant parent's own op list, unless this
        // derivation's worst case (one splice + four havoc ops) would push
        // past the cap -- then restart from its root seed so a recipe
        // never exceeds kMaxChainOps ops.
        if (auto parsed = MutationRecipe::parse(parent.recipe)) {
            if (parsed->ops.size() + kMaxOpsPerDerive <= kMaxChainOps) {
                recipe = std::move(*parsed);
            } else {
                recipe.program = parsed->program;
                recipe.parent_seed = parsed->parent_seed;
            }
        }
    }
    if (recipe.program.empty()) {
        recipe.program = parent.program;
        recipe.parent_seed = parent.seed;
    }

    Rng rng(seed ^ kDeriveSalt);

    // Splice goes to the *front* of the whole chain, and a chain carries at
    // most one: a splice replaces the packet plan wholesale, so anywhere
    // later it would wipe exactly the perturbations (or an earlier donor's
    // plan) that earned the parent its corpus slot.  Applied first, the
    // inherited (and new) havoc ops perturb the spliced result instead.
    // Donors are fresh same-program corpus entries -- a donor seed is all
    // the recipe needs to rebuild the donor's packet plan on replay.
    const std::vector<CorpusEntry>& pool = corpus.entries(recipe.program);
    std::vector<const CorpusEntry*> donors;
    for (const CorpusEntry& e : pool) {
        if (e.recipe.empty() && e.seed != recipe.parent_seed) {
            donors.push_back(&e);
        }
    }
    const bool chain_has_splice = std::any_of(
        recipe.ops.begin(), recipe.ops.end(), [](const MutationOp& op) {
            return op.kind == MutationOp::Kind::splice;
        });
    if (!donors.empty() && !chain_has_splice && rng.next_bool(0.3)) {
        MutationOp op;
        op.kind = MutationOp::Kind::splice;
        op.a = rng.next_below(9);  // config prefix kept (mod at apply)
        op.b = donors[rng.next_below(donors.size())]->seed;
        recipe.ops.insert(recipe.ops.begin(), op);
    }

    const std::uint64_t havoc = rng.next_range(1, 4);
    for (std::uint64_t i = 0; i < havoc; ++i) {
        static constexpr MutationOp::Kind kHavoc[] = {
            MutationOp::Kind::field_flip,    MutationOp::Kind::field_flip,
            MutationOp::Kind::field_boundary, MutationOp::Kind::packet_byte,
            MutationOp::Kind::packet_byte,   MutationOp::Kind::config_drop,
            MutationOp::Kind::config_dup,    MutationOp::Kind::config_swap,
        };
        MutationOp op;
        op.kind = kHavoc[rng.next_below(std::size(kHavoc))];
        op.a = rng.next_u64();
        op.b = rng.next_u64();
        recipe.ops.push_back(op);
    }
    return recipe;
}

Scenario Mutator::apply(const MutationRecipe& recipe) const {
    const std::size_t idx = program_index(recipe.program);
    Scenario s = gen_->make_for(idx, recipe.parent_seed);

    for (const MutationOp& op : recipe.ops) {
        switch (op.kind) {
            case MutationOp::Kind::field_flip: {
                auto& muts = s.spec.tmpl.mutations;
                if (muts.empty()) break;
                FieldMutation& m = muts[op.a % muts.size()];
                if (m.width <= 0) break;
                Bitvec mask(m.width, op.b);
                if (mask.is_zero()) mask = Bitvec(m.width, 1);
                m.value = m.value.bxor(mask);
                break;
            }
            case MutationOp::Kind::field_boundary: {
                auto& muts = s.spec.tmpl.mutations;
                if (muts.empty()) break;
                FieldMutation& m = muts[op.a % muts.size()];
                if (m.width <= 0) break;
                switch (op.b % 3) {
                    case 0: m.value = Bitvec(m.width); break;
                    case 1: m.value = Bitvec::ones(m.width); break;
                    default: m.value = Bitvec(m.width, 1); break;
                }
                break;
            }
            case MutationOp::Kind::packet_byte: {
                packet::Packet& base = s.spec.tmpl.base;
                if (base.empty()) break;
                const std::size_t off = op.a % base.size();
                const auto mask = static_cast<std::uint8_t>(op.b % 255 + 1);
                base.set_byte(off, base.byte(off) ^ mask);
                break;
            }
            case MutationOp::Kind::config_drop: {
                if (s.config.empty()) break;
                s.config.erase(s.config.begin() +
                               static_cast<std::ptrdiff_t>(op.a % s.config.size()));
                break;
            }
            case MutationOp::Kind::config_dup: {
                if (s.config.empty()) break;
                ConfigOp copy = s.config[op.a % s.config.size()];
                s.config.insert(
                    s.config.begin() +
                        static_cast<std::ptrdiff_t>(op.b % (s.config.size() + 1)),
                    std::move(copy));
                break;
            }
            case MutationOp::Kind::config_swap: {
                if (s.config.size() < 2) break;
                std::size_t i = op.a % s.config.size();
                std::size_t j = op.b % s.config.size();
                if (i == j) j = (j + 1) % s.config.size();
                std::swap(s.config[i], s.config[j]);
                break;
            }
            case MutationOp::Kind::splice: {
                // Parent's control-plane prefix crossed with the donor's
                // packet plan: the donor is the same catalogue program, so
                // its stimulus stays meaningful against the kept config.
                const Scenario donor = gen_->make_for(idx, op.b);
                const std::size_t prefix = op.a % (s.config.size() + 1);
                s.config.resize(prefix);
                s.spec = donor.spec;
                break;
            }
        }
    }
    return s;
}

Scenario Mutator::apply_concolic(const ConcolicRecipe& recipe) const {
    const std::size_t idx = program_index(recipe.program);
    // make_for supplies the compiled program handle; everything else -- the
    // control plane and the packet plan -- is replaced by the solver's
    // model, so the scenario is a pure function of the recipe text.
    Scenario s = gen_->make_for(idx, recipe.slot);
    s.seed = recipe.slot;
    const p4::ir::Program& prog = *s.compiled;

    const auto bad = [&](const std::string& why) {
        throw std::invalid_argument("concolic: " + why + " (program " +
                                    recipe.program + ")");
    };

    s.config.clear();
    for (const ConcolicRecipe::Default& def : recipe.defaults) {
        const p4::ir::Table* table = prog.table_by_name(def.table);
        if (!table) bad("unknown table '" + def.table + "'");
        const p4::ir::Action* action = prog.action_by_name(def.action);
        if (!action) bad("unknown action '" + def.action + "'");
        if (std::find(table->actions.begin(), table->actions.end(),
                      action->id) == table->actions.end()) {
            bad("action '" + def.action + "' not allowed on table '" +
                def.table + "'");
        }
        if (def.args.size() != action->param_widths.size()) {
            bad(util::format("action '%s' takes %zu args, recipe has %zu",
                             def.action.c_str(), action->param_widths.size(),
                             def.args.size()));
        }
        ConfigOp op;
        op.kind = ConfigOp::Kind::set_default_action;
        op.target = def.table;
        op.action = def.action;
        for (std::size_t i = 0; i < def.args.size(); ++i) {
            const int width = action->param_widths[i];
            const auto& bytes = def.args[i];
            if (bytes.size() != static_cast<std::size_t>((width + 7) / 8)) {
                bad(util::format("arg %zu of '%s' must be %d bytes, got %zu",
                                 i, def.action.c_str(), (width + 7) / 8,
                                 bytes.size()));
            }
            const int excess = static_cast<int>(bytes.size()) * 8 - width;
            if (excess > 0 && (bytes[0] >> (8 - excess)) != 0) {
                bad(util::format("arg %zu of '%s' overflows its %d-bit width",
                                 i, def.action.c_str(), width));
            }
            op.action_args.push_back(Bitvec::from_bytes(bytes, width));
        }
        s.config.push_back(std::move(op));
    }

    TestSpec spec;
    spec.tmpl.base = packet::Packet(recipe.packet);
    spec.inject_port = recipe.ingress_port;
    spec.count = 1;
    s.spec = std::move(spec);
    return s;
}

}  // namespace ndb::core
