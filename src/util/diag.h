// Source locations and diagnostics for the P4 frontend.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace ndb::util {

struct SourceLoc {
    int line = 0;    // 1-based; 0 means "unknown"
    int column = 0;  // 1-based

    std::string to_string() const;
    bool known() const { return line > 0; }
};

struct Diagnostic {
    SourceLoc loc;
    std::string message;

    std::string to_string() const;
};

// Collects diagnostics across a frontend pass; errors are accumulated so a
// single run reports every problem instead of stopping at the first.
class DiagEngine {
public:
    void error(SourceLoc loc, std::string message);

    bool has_errors() const { return !diags_.empty(); }
    const std::vector<Diagnostic>& all() const { return diags_; }

    // Joins every diagnostic into one report string.
    std::string report() const;

private:
    std::vector<Diagnostic> diags_;
};

// Thrown by frontend entry points when compilation cannot proceed.
class CompileError : public std::runtime_error {
public:
    explicit CompileError(std::string report)
        : std::runtime_error(report) {}
};

}  // namespace ndb::util
