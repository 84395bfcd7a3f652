#pragma once

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace anot {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders a double with `digits` decimals (fixed notation).
std::string FormatDouble(double value, int digits = 3);

}  // namespace anot
