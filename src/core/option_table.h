// The result-affecting VerifierOptions fields, as one table.
//
// Findings are comparable only when they were made under the same
// analysis settings, and options_result_hash is the check: a resume, a
// served job and a remote worker all refuse work hashed under other
// options. This table is the one list of those settings.
// options_result_hash walks every row in order, JobSpec reads and writes
// the rows that have a spec key, and chip_audit parses the rows that
// have a flag. Every value goes through the strict parser of
// util/parse.h and the row's range, so all front ends accept the same
// values. A new option is one new row, appended at the end so that the
// older rows keep their place in the hash.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "core/verifier.h"
#include "util/parse.h"

namespace xtv {

struct OptionRow {
  enum class Type { kBool, kUnsigned, kDouble };

  const char* key;   ///< job-spec key, or nullptr
  const char* flag;  ///< chip_audit flag, or nullptr
  Range range;       ///< accepted values (kUnsigned: lo is the least)
  const char* want;  ///< the range as errors name it: "a fraction in (0,1]"
  Type type;
  /// The field's 8 hashed bytes: a double's bit pattern, an integer's or
  /// enum's value, or a bool as 0 or 1.
  std::uint64_t (*get)(const VerifierOptions&);
  void (*set)(VerifierOptions&, std::uint64_t bits);
};

/// One FNV-1a step over the 8 little-endian bytes of `v`.
/// options_result_hash chains one step per row from the FNV offset basis,
/// and a job key extends the chain with its design reference.
inline std::uint64_t fnv1a_mix64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

/// Every row, in options_result_hash order.
std::span<const OptionRow> option_rows();

/// The row with this spec key or chip_audit flag; nullptr when none has.
const OptionRow* option_by_key(std::string_view key);
const OptionRow* option_by_flag(std::string_view flag);

/// Parses `text` into the row's field of `options`: "0" or "1" for a
/// bool, a value in `row.range` otherwise. On failure returns false and
/// leaves `options` unchanged.
bool set_option(const OptionRow& row, std::string_view text,
                VerifierOptions* options);

/// The row's field as spec text (0 or 1, a decimal integer, or a
/// hexfloat), which set_option reads back bit-exactly.
std::string format_option(const OptionRow& row,
                          const VerifierOptions& options);

/// chip_audit's defaults: flag glitches above 10% of Vdd, search the
/// worst-case aggressor alignment over a 4 ns window, and reuse repeated
/// clusters' models from a 64 MiB cache. An empty job spec starts from
/// these too, so a bare submit and a bare chip_audit run share one
/// options hash and interchangeable journals.
VerifierOptions audit_default_options();

}  // namespace xtv
