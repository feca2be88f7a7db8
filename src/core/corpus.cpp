#include "core/corpus.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include "core/mutate.h"
#include "dataplane/quirks.h"
#include "util/strings.h"

namespace ndb::core {

namespace {

// Reads one file into `rec`; returns why it is rejected, or "" when it is
// accepted.
std::string read_corpus_file(const std::filesystem::path& path,
                             CorpusRecord& rec) {
    rec.file = path.filename().string();
    std::ifstream in(path);
    std::string line, mutate, concolic;
    std::set<std::string> seen;
    bool seed_ok = false;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#') continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos) {
            return util::format("line %d: no '=' separator", lineno);
        }
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 1);
        // Each key once: a second value must not silently replace the first.
        if (!seen.insert(key).second) {
            return util::format("line %d: repeated key '%s'", lineno,
                                key.c_str());
        }
        // seed= and quirks= get the same strict parse as recipe operands: a
        // damaged line must reject the entry, not load a different one.
        if (key == "seed") {
            seed_ok = util::parse_u64(value, rec.seed);
            if (!seed_ok) {
                return util::format("line %d: unparseable seed '%s'", lineno,
                                    value.c_str());
            }
        } else if (key == "program") {
            rec.program = value;
        } else if (key == "backend") {
            rec.backend = value;
        } else if (key == "quirks") {
            if (!dataplane::Quirks::parse(value)) {
                return util::format("line %d: unparseable quirks '%s'", lineno,
                                    value.c_str());
            }
            rec.quirks = value;
        } else if (key == "stage") {
            rec.stage = value;
        } else if (key == "mutate" || key == "concolic") {
            // An empty recipe would read as a fresh seed: a different entry.
            if (value.empty()) {
                return util::format("line %d: empty %s= recipe", lineno,
                                    key.c_str());
            }
            (key == "mutate" ? mutate : concolic) = value;
        } else {
            return util::format("line %d: unknown key '%s'", lineno, key.c_str());
        }
    }
    if (rec.program.empty() || !seed_ok) return "missing program= or seed= line";
    if (!mutate.empty() && !concolic.empty()) {
        return "both mutate= and concolic= present; an entry is one kind";
    }
    // A recipe must both parse and name the entry's own program: an
    // inconsistent file would otherwise smuggle an out-of-catalogue (or
    // misfiled) parent past the campaign's catalogue filter and blow up a
    // worker at apply() time.
    if (!mutate.empty()) {
        const auto parsed = MutationRecipe::parse(mutate);
        if (!parsed) return "malformed mutate= recipe: " + mutate;
        if (parsed->program != rec.program) {
            return "mutate= recipe names program '" + parsed->program +
                   "' but entry is for '" + rec.program + "'";
        }
    }
    if (!concolic.empty()) {
        const auto parsed = ConcolicRecipe::parse(concolic);
        if (!parsed) return "malformed concolic= recipe: " + concolic;
        if (parsed->program != rec.program) {
            return "concolic= recipe names program '" + parsed->program +
                   "' but entry is for '" + rec.program + "'";
        }
        if (parsed->slot != rec.seed) {
            return util::format("concolic= slot %llu disagrees with seed=%llu",
                                static_cast<unsigned long long>(parsed->slot),
                                static_cast<unsigned long long>(rec.seed));
        }
    }
    rec.concolic = !concolic.empty();
    rec.recipe = rec.concolic ? concolic : mutate;
    return {};
}

// [a-z0-9_] survive; everything else becomes '-'.
std::string sanitize(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const bool keep = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                          c == '_';
        out += keep ? c : '-';
    }
    return out;
}

// The stage is the suffix of the fingerprint (backend|quirks|stage).
std::string fingerprint_stage(const DivergenceRecord& rec) {
    const std::size_t bar = rec.fingerprint.rfind('|');
    return bar == std::string::npos ? std::string("unlocalized")
                                    : rec.fingerprint.substr(bar + 1);
}

// The uniqueness key a corpus entry encodes.
std::string entry_key(const std::string& backend, const std::string& quirks,
                      const std::string& stage) {
    return backend + "|" + quirks + "|" + stage;
}

}  // namespace

CorpusDir read_corpus_dir(const std::string& dir) {
    CorpusDir out;
    if (!std::filesystem::is_directory(dir)) return out;
    std::vector<std::filesystem::path> files;
    for (const auto& file : std::filesystem::directory_iterator(dir)) {
        if (file.path().extension() == ".corpus") files.push_back(file.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
        CorpusRecord rec;
        const std::string why = read_corpus_file(path, rec);
        if (why.empty()) {
            out.records.push_back(std::move(rec));
        } else {
            out.diagnostics.push_back(rec.file + ": " + why);
        }
    }
    return out;
}

std::string soak_corpus_filename(const DivergenceRecord& rec) {
    return util::format(
        "soak_%s_%s_%016llx.corpus", sanitize(rec.backend).c_str(),
        sanitize(fingerprint_stage(rec)).c_str(),
        static_cast<unsigned long long>(util::fnv1a_64(rec.fingerprint)));
}

SoakResult append_unique_corpus_entries(const CampaignReport& report,
                                        const std::string& corpus_dir) {
    SoakResult result;
    std::filesystem::create_directories(corpus_dir);
    CorpusDir existing = read_corpus_dir(corpus_dir);
    result.ignored = std::move(existing.diagnostics);
    std::set<std::string> known;
    for (const CorpusRecord& rec : existing.records) {
        if (!rec.backend.empty()) {
            known.insert(entry_key(rec.backend, rec.quirks, rec.stage));
        }
    }

    for (const auto& rec : report.divergences) {
        const std::string stage = fingerprint_stage(rec);
        const std::string key = entry_key(rec.backend, rec.quirk_signature, stage);
        if (!known.insert(key).second) {
            ++result.skipped_known;
            continue;
        }
        const std::string name = soak_corpus_filename(rec);
        const std::filesystem::path path =
            std::filesystem::path(corpus_dir) / name;
        std::ofstream out(path);
        if (!out) continue;  // unwritable dir: skip rather than abort the soak
        out << "# discovered by campaign soak mode; replayed by corpus_replay_test\n";
        out << "# detail: " << rec.detail << "\n";
        out << "seed=" << rec.seed << "\n";
        out << "program=" << rec.program << "\n";
        out << "backend=" << rec.backend << "\n";
        out << "quirks=" << rec.quirk_signature << "\n";
        out << "stage=" << stage << "\n";
        // The recipe replays the exact scenario; a concolic recipe ('@'
        // head, never parseable as a MutationRecipe) gets its own key.
        if (!rec.recipe.empty()) {
            const bool concolic = ConcolicRecipe::parse(rec.recipe).has_value();
            out << (concolic ? "concolic=" : "mutate=") << rec.recipe << "\n";
        }
        result.written.push_back(name);
    }
    std::sort(result.written.begin(), result.written.end());
    return result;
}

}  // namespace ndb::core
