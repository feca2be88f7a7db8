#include "dataplane/quirks.h"

#include <algorithm>
#include <climits>
#include <cstdint>

#include "util/strings.h"

namespace ndb::dataplane {

namespace {

// Every quirk in signature order: a boolean flag or a positive level.
struct QuirkField {
    const char* name;
    bool Quirks::*flag;
    int Quirks::*level;
};

constexpr QuirkField kFields[] = {
    {"reject_as_accept", &Quirks::reject_as_accept, nullptr},
    {"parser_depth_limit", nullptr, &Quirks::parser_depth_limit},
    {"skip_checksum_update", &Quirks::skip_checksum_update, nullptr},
    {"shift_miscompile", &Quirks::shift_miscompile, nullptr},
    {"table_size_clamp", nullptr, &Quirks::table_size_clamp},
    {"ternary_priority_inverted", &Quirks::ternary_priority_inverted, nullptr},
    {"metadata_clobber", &Quirks::metadata_clobber, nullptr},
    {"stale_entry", &Quirks::stale_entry, nullptr},
    {"expiry_off_by_one", &Quirks::expiry_off_by_one, nullptr},
    {"hash_collision_misdirect", nullptr, &Quirks::hash_collision_misdirect},
};

}  // namespace

std::string Quirks::signature() const {
    std::string s;
    for (const QuirkField& f : kFields) {
        if (f.flag ? !(this->*f.flag) : this->*f.level <= 0) continue;
        if (!s.empty()) s += '+';
        s += f.name;
        if (f.level) {
            s += '=';
            s += std::to_string(this->*f.level);
        }
    }
    return s.empty() ? "none" : s;
}

std::optional<Quirks> Quirks::parse(std::string_view signature) {
    Quirks q;
    if (signature == "none") return q;
    bool seen[std::size(kFields)] = {};
    for (const std::string& token : util::split(signature, '+')) {
        const std::size_t eq = token.find('=');
        const std::string_view name = std::string_view(token).substr(0, eq);
        const QuirkField* f = std::find_if(
            std::begin(kFields), std::end(kFields),
            [name](const QuirkField& k) { return name == k.name; });
        if (f == std::end(kFields)) return std::nullopt;
        bool& dup = seen[f - std::begin(kFields)];
        if (dup) return std::nullopt;
        dup = true;
        if (f->flag) {
            if (eq != std::string::npos) return std::nullopt;
            q.*(f->flag) = true;
            continue;
        }
        std::uint64_t value = 0;
        if (eq == std::string::npos ||
            !util::parse_u64(std::string_view(token).substr(eq + 1), value) ||
            value == 0 || value > INT_MAX) {
            return std::nullopt;
        }
        q.*(f->level) = static_cast<int>(value);
    }
    return q;
}

}  // namespace ndb::dataplane
