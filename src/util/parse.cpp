#include "util/parse.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace xtv {

namespace {

// from_chars takes no whitespace or prefix, and no sign for an unsigned
// type, and it reports overflow instead of saturating.
template <typename T>
bool parse_integer(std::string_view text, T* out, int base) {
  T v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v, base);
  if (text.empty() || ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

}  // namespace

bool parse_unsigned(std::string_view text, std::uint64_t* out, int base) {
  return parse_integer(text, out, base);
}

bool parse_signed(std::string_view text, long* out) {
  return parse_integer(text, out, 10);
}

bool parse_double_token(std::string_view text, double* out) {
  // strtod skips leading whitespace and needs a terminated string.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
    return false;
  const std::string s(text);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno == ERANGE || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool parse_finite(std::string_view text, double* out, Range range) {
  double v = 0.0;
  if (!parse_double_token(text, &v) || !std::isfinite(v) ||
      !range.contains(v))
    return false;
  *out = v;
  return true;
}

std::string format_hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace xtv
