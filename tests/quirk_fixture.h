// Shared seven-flag acceptance fixture: one single-quirk DUT per
// dataplane::Quirks flag, each paired with the catalogue program that
// exercises it, plus the budget metric both the coverage_test and
// mutate_test acceptance sweeps compare on.  Kept in one header so the two
// sweeps can never drift onto different quirk sets.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "dataplane/quirks.h"

namespace ndb_test {

struct FlagFixture {
    std::vector<std::string> programs;
    std::vector<ndb::core::BackendSpec> duts;
};

// Applies the fixture's common knobs onto a campaign config.
inline void apply_fixture(const FlagFixture& fx, ndb::core::CampaignConfig& cfg) {
    cfg.programs = fx.programs;
    cfg.duts = fx.duts;
}

inline FlagFixture seven_flag_fixture() {
    using ndb::core::BackendSpec;
    using ndb::dataplane::Quirks;
    FlagFixture fx;
    const auto add = [&fx](const std::string& label, Quirks q,
                           const std::string& program) {
        fx.duts.push_back(BackendSpec{"sdnet", q, label});
        if (std::find(fx.programs.begin(), fx.programs.end(), program) ==
            fx.programs.end()) {
            fx.programs.push_back(program);
        }
    };
    {
        Quirks q;
        q.reject_as_accept = true;
        add("reject_as_accept", q, "reject_filter");
    }
    {
        Quirks q;
        q.parser_depth_limit = 4;
        add("parser_depth_limit", q, "deep_parser");
    }
    {
        Quirks q;
        q.skip_checksum_update = true;
        add("skip_checksum_update", q, "ipv4_router");
    }
    {
        Quirks q;
        q.shift_miscompile = true;
        add("shift_miscompile", q, "shift_mangler");
    }
    {
        Quirks q;
        q.table_size_clamp = 2;
        add("table_size_clamp", q, "l2_switch");
    }
    {
        Quirks q;
        q.ternary_priority_inverted = true;
        add("ternary_priority_inverted", q, "acl_firewall");
    }
    {
        Quirks q;
        q.metadata_clobber = true;
        add("metadata_clobber", q, "meta_echo");
    }
    return fx;
}

// One single-quirk DUT per state-class quirk, paired with the stateful NF
// program whose register/extern traffic makes it observable.  The programs
// list carries all four NF shapes so every DUT also sweeps flows it should
// stay silent on.
inline FlagFixture state_quirk_fixture() {
    using ndb::core::BackendSpec;
    using ndb::dataplane::Quirks;
    FlagFixture fx;
    const auto add = [&fx](const std::string& label, Quirks q,
                           const std::string& program) {
        fx.duts.push_back(BackendSpec{"sdnet", q, label});
        if (std::find(fx.programs.begin(), fx.programs.end(), program) ==
            fx.programs.end()) {
            fx.programs.push_back(program);
        }
    };
    {
        Quirks q;
        q.stale_entry = true;
        add("stale_entry", q, "flow_firewall");
    }
    {
        Quirks q;
        q.expiry_off_by_one = true;
        add("expiry_off_by_one", q, "nat_gateway");
    }
    {
        Quirks q;
        q.hash_collision_misdirect = 3;
        add("hash_collision_misdirect", q, "maglev_lb");
    }
    if (std::find(fx.programs.begin(), fx.programs.end(), "learning_bridge") ==
        fx.programs.end()) {
        fx.programs.push_back("learning_bridge");
    }
    return fx;
}

// Scenario budget a report needed before every one of the seven flags had
// produced at least one fingerprint (max over flags of the first discovery
// ordinal); 0 when a flag was never found.
inline std::uint64_t budget_to_all_seven(const ndb::core::CampaignReport& report,
                                         const FlagFixture& fx) {
    std::map<std::string, std::uint64_t> first;
    for (const auto& d : report.divergences) {
        auto [it, inserted] = first.emplace(d.backend, d.discovered_at);
        if (!inserted) it->second = std::min(it->second, d.discovered_at);
    }
    if (first.size() < fx.duts.size()) return 0;
    std::uint64_t worst = 0;
    for (const auto& [label, at] : first) worst = std::max(worst, at);
    return worst;
}

}  // namespace ndb_test
