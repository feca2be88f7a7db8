#include "util/diag.h"

namespace ndb::util {

std::string SourceLoc::to_string() const {
    if (!known()) return "<unknown>";
    return std::to_string(line) + ":" + std::to_string(column);
}

std::string Diagnostic::to_string() const {
    return loc.to_string() + ": error: " + message;
}

void DiagEngine::error(SourceLoc loc, std::string message) {
    diags_.push_back({loc, std::move(message)});
}

std::string DiagEngine::report() const {
    std::string s;
    for (const auto& d : diags_) {
        s += d.to_string();
        s += '\n';
    }
    return s;
}

}  // namespace ndb::util
