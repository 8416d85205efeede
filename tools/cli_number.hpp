// Strict numeric flag parsing shared by the command-line tools
// (nct_tune, nct_serve, trace_dump).  A value must be a number in full
// (no trailing characters, no whitespace, no sign on an unsigned flag)
// and inside the flag's range; anything else is reported on stderr and
// the tool exits with its usage status 2.
#pragma once

#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace nct::cli {

/// Parse all of `text` into `out` when it is a number in [lo, hi]
/// (integers in `base`; floating point in decimal or scientific form).
/// Otherwise print "<tool>: <flag> expects ... in [lo, hi], got '<text>'"
/// and return false, leaving `out` unchanged.
template <class T>
bool parse_number(const char* tool, const char* flag, std::string_view text, T lo, T hi,
                  T& out, int base = 10) {
  const char* const end = text.data() + text.size();
  T value{};
  std::from_chars_result r{};
  if constexpr (std::is_floating_point_v<T>) {
    r = std::from_chars(text.data(), end, value);
  } else {
    r = std::from_chars(text.data(), end, value, base);
  }
  // NaN fails both comparisons, so it is rejected with the out-of-range.
  if (!text.empty() && r.ec == std::errc{} && r.ptr == end && value >= lo && value <= hi) {
    out = value;
    return true;
  }
  const auto show = [](T v) {
    if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", static_cast<double>(v));
      return std::string(buf);
    } else {
      return std::to_string(v);
    }
  };
  const char* const kind = std::is_floating_point_v<T> ? "a number"
                           : base == 16               ? "a hex integer"
                                                      : "an integer";
  std::fprintf(stderr, "%s: %s expects %s in [%s, %s], got '%.*s'\n", tool, flag, kind,
               show(lo).c_str(), show(hi).c_str(), static_cast<int>(text.size()), text.data());
  return false;
}

}  // namespace nct::cli
