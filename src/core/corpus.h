// The `.corpus` regression format: one strict reader, one writer.
//
// A `.corpus` file is one replayable divergence, written as `key=value`
// lines (blank lines and `#` comments are skipped):
//
//   seed=N        decimal scenario seed (required)
//   program=P     catalogue program (required)
//   backend=B     registry backend the entry diverges on   } the fingerprint
//   quirks=Q      dataplane::Quirks::signature() text      } it reproduces
//   stage=S       first diverging stage                    }
//   mutate=R      a catalogue core::Recipe of P and N with 1..12 ops, or
//   concolic=R    a concolic core::Recipe of P whose slot is N
//
// Without a recipe line the entry is the fresh (P, N) scenario; a mutate=
// recipe without ops would spell that scenario a second way, so the reader
// refuses it.  Any other key, a line without '=', a key given twice, a seed
// or quirk signature that does not parse strictly, a missing seed= or
// program=, both recipe keys at once, an empty recipe, a recipe that does
// not parse (core::Recipe::parse) or is of the other key's kind, or one
// whose program or seed/slot disagrees with program= or seed= rejects the
// whole file with a diagnostic.  The mutation engine
// (ScenarioCorpus::load_dir), soak mode and the regression replay test all
// read through read_corpus_dir, so a file gets the same verdict in each.
//
// Soak mode is the writer: it appends every finding whose (backend,
// quirk-signature, stage) fingerprint the directory does not hold yet.
// File names are a pure function of the fingerprint, so re-running a soak
// never duplicates entries and two machines discovering the same bug write
// the same file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/mutate.h"

namespace ndb::core {

// One accepted `.corpus` file.
struct CorpusRecord {
    std::string file;     // file name within the directory
    std::string backend;  // empty when the file has no backend= line
    std::string quirks;   // empty when the file has no quirks= line
    std::string stage;
    // The entry's scenario: program= and seed=, with its mutate= or
    // concolic= line when it has one.
    Recipe recipe = Recipe::Catalogue{};
};

struct CorpusDir {
    std::vector<CorpusRecord> records;     // accepted files, by file name
    std::vector<std::string> diagnostics;  // "<file>: <reason>", by file name
};

// Reads every `.corpus` file directly under `dir`, sorted by file name.  A
// missing directory reads as empty.
CorpusDir read_corpus_dir(const std::string& dir);

struct SoakResult {
    std::vector<std::string> written;  // file names created this run
    std::size_t skipped_known = 0;     // findings already in the corpus
    std::vector<std::string> ignored;  // diagnostics of files the reader rejected
};

// Deterministic corpus file name for a divergence record:
//   soak_<backend>_<stage>_<fnv64(fingerprint) hex>.corpus
std::string soak_corpus_filename(const DivergenceRecord& rec);

// Writes every record of `report` whose fingerprint no accepted file in
// `corpus_dir` holds yet, with its recipe as a mutate= or concolic= line
// when it has one (a fresh recipe needs none).  Rejected files hold no
// fingerprint; their diagnostics come back in `ignored`.  The record's
// backend label must be a registry name for the written recipe to replay
// -- true for every sweep ndb_campaign builds.  Creates the directory when
// missing.
SoakResult append_unique_corpus_entries(const CampaignReport& report,
                                        const std::string& corpus_dir);

}  // namespace ndb::core
