// Small string helpers used across the project.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ndb::util {

// FNV-1a over the bytes of `text`: the project's stable string fingerprint
// (coverage program salts, soak corpus file names).  Do not change the
// constants -- committed corpus names depend on them.
inline std::uint64_t fnv1a_64(std::string_view text) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::vector<std::string> split(std::string_view text, char sep);
std::string_view trim(std::string_view text);
bool starts_with(std::string_view text, std::string_view prefix);

// Strict unsigned decimal parse: digits only, whole string, overflow
// rejected.  Shared by recipe decoding and CLI flag validation -- anywhere
// a half-parsed number would silently become a *different* number.
bool parse_u64(std::string_view text, std::uint64_t& out);

// Strict double parse: the whole string must be consumed and the result
// finite.  For CLI flags where strtod's silent 0.0-on-garbage is a trap.
bool parse_double(std::string_view text, double& out);

// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// JSON string-body escape: quote, backslash, \n and \t by name, every other
// control byte as \u00XX.  The campaign report and the trace export share it.
std::string json_escape(std::string_view text);

}  // namespace ndb::util
