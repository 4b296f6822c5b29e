// Strict whole-token number parsing, shared by every text front end.
//
// strtoull and strtod alone accept too much: a sign on an unsigned value
// wraps ("-1" becomes 2^64-1), a scan stops silently at trailing junk,
// out-of-range input saturates with only errno to tell, and "nan" and
// "inf" parse as doubles. Every reader of numbers from outside the
// process goes through these instead: option values from job specs and
// CLI flags, design files, wire and setup frames, journals and test-hook
// environment variables.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace xtv {

/// An accepted interval of values: [lo, hi], or (lo, hi] when lo_open.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;

  bool contains(double v) const {
    return (lo_open ? v > lo : v >= lo) && v <= hi;
  }
};

/// Whole-token unsigned integer in `base` (10 or 16): digits only, so no
/// sign, whitespace or "0x" prefix; a value past 2^64-1 fails.
bool parse_unsigned(std::string_view text, std::uint64_t* out,
                    int base = 10);

/// Whole-token signed decimal integer; a value outside `long` fails.
bool parse_signed(std::string_view text, long* out);

/// Whole-token finite double, decimal or C hexfloat, inside `range`.
/// Fails on nan, inf, and on overflow or underflow (ERANGE).
bool parse_finite(std::string_view text, double* out, Range range = {});

/// As parse_finite, but also reads nan and inf: what a reader needs that
/// must load back whatever format_hexfloat wrote, such as a journal.
bool parse_double_token(std::string_view text, double* out);

/// A double as C hexfloat text, which parse_double_token reads back
/// bit-exactly.
std::string format_hexfloat(double v);

}  // namespace xtv
