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

// --- recipe ------------------------------------------------------------------

namespace {

std::optional<Recipe> parse_catalogue(std::string program, std::uint64_t seed,
                                      std::span<const std::string> items) {
    if (items.size() > Mutator::kMaxChainOps) return std::nullopt;
    Recipe::Catalogue recipe{std::move(program), seed, {}};
    for (const std::string& item : items) {
        // Strictly name:a:b -- the encoder always writes both operands, so
        // a missing one means truncation or hand-editing damage and must
        // fail loudly rather than replay a different mutation.
        const std::size_t c1 = item.find(':');
        if (c1 == std::string::npos) return std::nullopt;
        const std::size_t c2 = item.find(':', c1 + 1);
        if (c2 == std::string::npos) return std::nullopt;
        const std::string_view name = std::string_view(item).substr(0, c1);
        const auto known = std::find_if(
            std::begin(kOpNames), std::end(kOpNames),
            [name](const OpNameEntry& e) { return name == e.name; });
        if (known == std::end(kOpNames)) return std::nullopt;
        MutationOp op;
        op.kind = known->kind;
        if (!parse_u64(std::string_view(item).substr(c1 + 1, c2 - c1 - 1), op.a) ||
            !parse_u64(std::string_view(item).substr(c2 + 1), op.b)) {
            return std::nullopt;
        }
        recipe.ops.push_back(op);
    }
    return Recipe(std::move(recipe));
}

std::optional<Recipe> parse_concolic(std::string program, std::uint64_t slot,
                                     std::span<const std::string> items) {
    verify::ConcolicRecipe recipe;
    recipe.program = std::move(program);
    recipe.slot = slot;
    if (recipe.slot >= coverage::CoverageMap::kSlots) return std::nullopt;

    bool have_port = false;
    bool have_packet = false;
    for (const std::string& item : items) {
        const std::size_t colon = item.find(':');
        if (colon == std::string::npos) return std::nullopt;
        const std::string_view key = std::string_view(item).substr(0, colon);
        const std::string_view value = std::string_view(item).substr(colon + 1);
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
            verify::ConcolicRecipe::Default def;
            def.table = parts[0];
            def.action = parts[1];
            for (std::size_t p = 2; p < parts.size(); ++p) {
                std::vector<std::uint8_t> arg;
                if (!hex_decode(parts[p], arg)) return std::nullopt;
                def.args.push_back(std::move(arg));
            }
            // One default per table: two would be a self-contradictory
            // control plane, not a replayable scenario.
            for (const auto& prev : recipe.defaults) {
                if (prev.table == def.table) return std::nullopt;
            }
            recipe.defaults.push_back(std::move(def));
        } else {
            return std::nullopt;  // unknown section key
        }
    }
    if (!have_port || !have_packet) return std::nullopt;
    return Recipe(std::move(recipe));
}

}  // namespace

const std::string& Recipe::program() const {
    const Catalogue* c = catalogue();
    return c ? c->program : concolic()->program;
}

std::uint64_t Recipe::seed() const {
    const Catalogue* c = catalogue();
    return c ? c->seed : concolic()->slot;
}

bool Recipe::fresh() const {
    const Catalogue* c = catalogue();
    return c && c->ops.empty();
}

std::string Recipe::encode() const {
    if (const Catalogue* c = catalogue()) {
        std::string out = util::format("%s#%llu", c->program.c_str(),
                                       static_cast<unsigned long long>(c->seed));
        for (const MutationOp& op : c->ops) {
            out += util::format("|%s:%llu:%llu", mutation_op_name(op.kind),
                                static_cast<unsigned long long>(op.a),
                                static_cast<unsigned long long>(op.b));
        }
        return out;
    }
    const verify::ConcolicRecipe& m = *concolic();
    std::string out = util::format("%s@%llu|port:%u|pkt:%s", m.program.c_str(),
                                   static_cast<unsigned long long>(m.slot),
                                   m.ingress_port, hex_encode(m.packet).c_str());
    for (const auto& def : m.defaults) {
        out += util::format("|def:%s:%s", def.table.c_str(), def.action.c_str());
        for (const auto& arg : def.args) {
            out += ':';
            out += hex_encode(arg);
        }
    }
    return out;
}

std::optional<Recipe> Recipe::parse(std::string_view text) {
    // Head: the program, then '#' and a seed or '@' and a slot.  The first
    // separator decides the kind and everything after it must be a number,
    // so no text parses as both kinds.
    const std::vector<std::string> items = util::split(text, '|');
    const std::string& head = items[0];
    const std::size_t sep = head.find_first_of("#@");
    std::uint64_t number = 0;
    if (sep == std::string::npos || sep == 0 ||
        !parse_u64(std::string_view(head).substr(sep + 1), number)) {
        return std::nullopt;
    }
    const std::span<const std::string> rest(items.begin() + 1, items.end());
    return head[sep] == '#' ? parse_catalogue(head.substr(0, sep), number, rest)
                            : parse_concolic(head.substr(0, sep), number, rest);
}

// --- corpus -------------------------------------------------------------------

std::size_t ScenarioCorpus::load_dir(const std::string& dir,
                                     const std::vector<std::string>& programs) {
    CorpusDir read = read_corpus_dir(dir);
    diagnostics_ = std::move(read.diagnostics);
    std::size_t loaded = 0;
    for (const CorpusRecord& rec : read.records) {
        if (std::find(programs.begin(), programs.end(), rec.recipe.program()) ==
            programs.end()) {
            continue;  // outside this campaign's catalogue slice
        }
        if (add(rec.recipe)) ++loaded;
    }
    return loaded;
}

bool ScenarioCorpus::add(const Recipe& recipe) {
    if (!keys_.insert(recipe.encode()).second) return false;
    by_program_[recipe.program()].push_back(recipe);
    return true;
}

const std::vector<Recipe>& ScenarioCorpus::entries(
    const std::string& program) const {
    static const std::vector<Recipe> kEmpty;
    const auto it = by_program_.find(program);
    return it == by_program_.end() ? kEmpty : it->second;
}

// --- mutator ------------------------------------------------------------------

namespace {

// A concolic recipe's scenario: the program's shared image, the solver's
// packet on its port, and the control plane reduced to its defaults, so the
// scenario is a pure function of the recipe.
Scenario build_concolic(const SpecGenerator& gen, std::size_t idx,
                        const verify::ConcolicRecipe& recipe) {
    Scenario s;
    s.seed = recipe.slot;
    s.program = gen.programs()[idx];
    s.compiled = gen.image(idx);
    const p4::ir::Program& prog = *s.compiled;

    const auto bad = [&](const std::string& why) {
        throw std::invalid_argument("concolic: " + why + " (program " +
                                    recipe.program + ")");
    };

    for (const auto& def : recipe.defaults) {
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

    s.spec.tmpl.base = packet::Packet(recipe.packet);
    s.spec.inject_port = recipe.ingress_port;
    s.spec.count = 1;
    return s;
}

}  // namespace

Recipe::Catalogue Mutator::derive(const ScenarioCorpus& corpus,
                                  const Recipe::Catalogue& parent,
                                  std::uint64_t seed) const {
    // Chain: extend the parent's own op list, unless this derivation's
    // worst case (one splice + four havoc ops) would push past the cap --
    // then restart from its root seed so a recipe never exceeds
    // kMaxChainOps ops.
    Recipe::Catalogue recipe = parent;
    if (recipe.ops.size() + kMaxOpsPerDerive > kMaxChainOps) recipe.ops.clear();

    Rng rng(seed ^ kDeriveSalt);

    // Splice goes to the *front* of the whole chain, and a chain carries at
    // most one: a splice replaces the packet plan wholesale, so anywhere
    // later it would wipe exactly the perturbations (or an earlier donor's
    // plan) that earned the parent its corpus slot.  Applied first, the
    // inherited (and new) havoc ops perturb the spliced result instead.
    // Donors are fresh same-program corpus entries -- a donor seed is all
    // the recipe needs to rebuild the donor's packet plan on replay.
    std::vector<std::uint64_t> donors;
    for (const Recipe& e : corpus.entries(recipe.program)) {
        if (e.fresh() && e.seed() != recipe.seed) donors.push_back(e.seed());
    }
    const bool chain_has_splice = std::any_of(
        recipe.ops.begin(), recipe.ops.end(), [](const MutationOp& op) {
            return op.kind == MutationOp::Kind::splice;
        });
    if (!donors.empty() && !chain_has_splice && rng.next_bool(0.3)) {
        MutationOp op;
        op.kind = MutationOp::Kind::splice;
        op.a = rng.next_below(9);  // config prefix kept (mod at build)
        op.b = donors[rng.next_below(donors.size())];
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

Scenario Mutator::build(const Recipe& recipe) const {
    const std::size_t idx = gen_->index_of(recipe.program());
    const Recipe::Catalogue* c = recipe.catalogue();
    if (!c) return build_concolic(*gen_, idx, *recipe.concolic());
    Scenario s = gen_->make_for(idx, c->seed);

    for (const MutationOp& op : c->ops) {
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

}  // namespace ndb::core
