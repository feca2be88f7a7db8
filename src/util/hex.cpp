#include "util/hex.h"

#include <cctype>
#include <stdexcept>

namespace ndb::util {

namespace {
const char* kDigits = "0123456789abcdef";
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
    std::string s;
    s.reserve(bytes.size() * 2);
    for (const auto b : bytes) {
        s.push_back(kDigits[b >> 4]);
        s.push_back(kDigits[b & 0xf]);
    }
    return s;
}

std::vector<std::uint8_t> from_hex(std::string_view text) {
    if (text.starts_with("0x") || text.starts_with("0X")) text.remove_prefix(2);
    std::vector<std::uint8_t> out;
    int nibble = -1;
    for (const char c : text) {
        if (std::isspace(static_cast<unsigned char>(c)) || c == ':' || c == '_') {
            continue;
        }
        int d;
        if (c >= '0' && c <= '9') {
            d = c - '0';
        } else if (c >= 'a' && c <= 'f') {
            d = c - 'a' + 10;
        } else if (c >= 'A' && c <= 'F') {
            d = c - 'A' + 10;
        } else {
            throw std::invalid_argument("from_hex: bad character");
        }
        if (nibble < 0) {
            nibble = d;
        } else {
            out.push_back(static_cast<std::uint8_t>((nibble << 4) | d));
            nibble = -1;
        }
    }
    if (nibble >= 0) throw std::invalid_argument("from_hex: odd digit count");
    return out;
}

std::string hex_dump(std::span<const std::uint8_t> bytes) {
    std::string s;
    // At least 8 hex digits, up to one per nibble of a size_t, then two
    // spaces and the terminator.
    char offset[sizeof(std::size_t) * 2 + 3];
    for (std::size_t row = 0; row < bytes.size(); row += 16) {
        std::snprintf(offset, sizeof offset, "%08zx  ", row);
        s += offset;
        for (std::size_t i = 0; i < 16; ++i) {
            if (row + i < bytes.size()) {
                const auto b = bytes[row + i];
                s.push_back(kDigits[b >> 4]);
                s.push_back(kDigits[b & 0xf]);
                s.push_back(' ');
            } else {
                s += "   ";
            }
            if (i == 7) s.push_back(' ');
        }
        s += " |";
        for (std::size_t i = 0; i < 16 && row + i < bytes.size(); ++i) {
            const auto b = bytes[row + i];
            s.push_back(std::isprint(b) ? static_cast<char>(b) : '.');
        }
        s += "|\n";
    }
    return s;
}

}  // namespace ndb::util
