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

// The key a recipe of each kind is written under.
const char* recipe_key(const Recipe& recipe) {
    return recipe.concolic() ? "concolic" : "mutate";
}

// Reads one file into `rec`; returns why it is rejected, or "" when it is
// accepted.
std::string read_corpus_file(const std::filesystem::path& path,
                             CorpusRecord& rec) {
    rec.file = path.filename().string();
    std::ifstream in(path);
    // `key` is the recipe line's key, "mutate" or "concolic", and `text`
    // its value; both stay empty for a fresh entry.
    std::string line, program, key, text;
    std::uint64_t seed = 0;
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
        const std::string name = line.substr(0, eq);
        const std::string value = line.substr(eq + 1);
        // Each key once: a second value must not silently replace the first.
        if (!seen.insert(name).second) {
            return util::format("line %d: repeated key '%s'", lineno,
                                name.c_str());
        }
        // seed= and quirks= get the same strict parse as recipe operands: a
        // damaged line must reject the entry, not load a different one.
        if (name == "seed") {
            seed_ok = util::parse_u64(value, seed);
            if (!seed_ok) {
                return util::format("line %d: unparseable seed '%s'", lineno,
                                    value.c_str());
            }
        } else if (name == "program") {
            program = value;
        } else if (name == "backend") {
            rec.backend = value;
        } else if (name == "quirks") {
            if (!dataplane::Quirks::parse(value)) {
                return util::format("line %d: unparseable quirks '%s'", lineno,
                                    value.c_str());
            }
            rec.quirks = value;
        } else if (name == "stage") {
            rec.stage = value;
        } else if (name == "mutate" || name == "concolic") {
            // An empty recipe would read as a fresh seed: a different entry.
            if (value.empty()) {
                return util::format("line %d: empty %s= recipe", lineno,
                                    name.c_str());
            }
            if (!key.empty()) {
                return "both mutate= and concolic= present; an entry is one kind";
            }
            key = name;
            text = value;
        } else {
            return util::format("line %d: unknown key '%s'", lineno, name.c_str());
        }
    }
    if (program.empty() || !seed_ok) return "missing program= or seed= line";
    if (key.empty()) {
        rec.recipe = Recipe::Catalogue{program, seed, {}};
        return {};
    }
    // A recipe must parse as its key's kind and name the entry's own program
    // and seed: an inconsistent file would otherwise smuggle an
    // out-of-catalogue (or misfiled) parent past the campaign's catalogue
    // filter and blow up a worker when its scenario is built.
    std::optional<Recipe> parsed = Recipe::parse(text);
    if (!parsed || recipe_key(*parsed) != key) {
        return "malformed " + key + "= recipe: " + text;
    }
    if (parsed->fresh()) {
        return "mutate= recipe has no ops; a fresh seed has no mutate= line";
    }
    if (parsed->program() != program) {
        return key + "= recipe names program '" + parsed->program() +
               "' but entry is for '" + program + "'";
    }
    if (parsed->seed() != seed) {
        return util::format("%s= %s %llu disagrees with seed=%llu", key.c_str(),
                            parsed->concolic() ? "slot" : "seed",
                            static_cast<unsigned long long>(parsed->seed()),
                            static_cast<unsigned long long>(seed));
    }
    rec.recipe = std::move(*parsed);
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
        // The recipe replays the exact scenario, under its kind's key; the
        // seed= and program= lines above already spell a fresh one.
        if (!rec.recipe.empty()) {
            const std::optional<Recipe> recipe = Recipe::parse(rec.recipe);
            if (!recipe || !recipe->fresh()) {
                out << (recipe ? recipe_key(*recipe) : "mutate") << '='
                    << rec.recipe << "\n";
            }
        }
        result.written.push_back(name);
    }
    std::sort(result.written.begin(), result.written.end());
    return result;
}

}  // namespace ndb::core
