// Command-line parsing shared by the example CLIs.
//
// The atoi/atof idiom silently maps garbage to 0 — "--processes 0x2"
// became a serial run and "--audit-fraction 1.5" an out-of-range lottery.
// These helpers read the FULL token through the strict parser of
// util/parse.h and range-check it, exiting with the usage-error code (2)
// and a "usage error:" prefix on anything else, so a typo'd flag fails
// loudly instead of quietly changing the run.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>

#include "util/parse.h"

namespace xtv {
namespace flags {

[[noreturn]] inline void usage_error(const char* flag, const char* value,
                                     const char* want) {
  std::fprintf(stderr, "usage error: %s expects %s, got \"%s\"\n", flag,
               want, value);
  std::exit(2);
}

/// The value after the flag at argv[*i], advancing *i past it; a flag
/// with no value is a usage error.
inline const char* value(int argc, char** argv, int* i) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "usage error: %s requires a value\n", argv[*i]);
    std::exit(2);
  }
  return argv[++*i];
}

/// The default cell characterization cache: xtv_cells.cache next to the
/// binary, not in the CWD, so every invocation of one build (a fleet of
/// workers too) shares one warm cache wherever it is launched from.
inline std::string default_cell_cache(const char* argv0) {
  const std::string self = argv0 ? argv0 : "";
  const std::size_t slash = self.rfind('/');
  return (slash == std::string::npos ? "" : self.substr(0, slash + 1)) +
         "xtv_cells.cache";
}

/// Rejects repeated flags: "--threads 2 --threads 8" is almost always a
/// copy-paste error, and silently letting the last one win hides it.
/// Call check() on every argv token; only "--"-prefixed tokens count.
class SeenFlags {
 public:
  void check(const char* arg) {
    if (!arg || arg[0] != '-' || arg[1] != '-') return;
    if (!seen_.insert(arg).second) {
      std::fprintf(stderr, "usage error: duplicate flag %s\n", arg);
      std::exit(2);
    }
  }

 private:
  std::set<std::string> seen_;
};

/// Whole-token finite double inside `range`.
inline double parse_double(const char* flag, const char* value, Range range,
                           const char* want) {
  double v = 0.0;
  if (!parse_finite(value, &v, range)) usage_error(flag, value, want);
  return v;
}

/// Whole-token base-10 size with an inclusive floor (use 1 for flags
/// where 0 is meaningless, e.g. --processes); a sign is rejected.
inline std::size_t parse_size(const char* flag, const char* value,
                              std::size_t min_incl = 0,
                              const char* want = "a non-negative integer") {
  std::uint64_t v = 0;
  if (!parse_unsigned(value, &v) || v < min_incl)
    usage_error(flag, value, want);
  return v;
}

/// Whole-token signed integer with an inclusive floor.
inline long parse_long(const char* flag, const char* value,
                       long min_incl = std::numeric_limits<long>::min(),
                       const char* want = "an integer") {
  long v = 0;
  if (!parse_signed(value, &v) || v < min_incl)
    usage_error(flag, value, want);
  return v;
}

}  // namespace flags
}  // namespace xtv
