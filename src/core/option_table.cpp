#include "core/option_table.h"

#include <bit>
#include <limits>
#include <type_traits>
#include <utility>

namespace xtv {

namespace {

template <typename T>
std::uint64_t bits_of(T v) {
  if constexpr (std::is_same_v<T, double>)
    return std::bit_cast<std::uint64_t>(v);
  else
    return static_cast<std::uint64_t>(v);  // a bool becomes 0 or 1
}

template <typename T>
T from_bits(std::uint64_t bits) {
  if constexpr (std::is_same_v<T, double>)
    return std::bit_cast<double>(bits);
  else
    return static_cast<T>(bits);
}

template <typename T>
constexpr OptionRow::Type type_of() {
  if constexpr (std::is_same_v<T, double>) return OptionRow::Type::kDouble;
  if constexpr (std::is_same_v<T, bool>) return OptionRow::Type::kBool;
  return OptionRow::Type::kUnsigned;
}

// A row's type, get and set, from the field's path in VerifierOptions.
#define XTV_FIELD(member)                                                 \
  type_of<decltype(std::declval<VerifierOptions&>().member)>(),           \
      [](const VerifierOptions& o) { return bits_of(o.member); },         \
      [](VerifierOptions& o, std::uint64_t bits) {                        \
        o.member = from_bits<decltype(o.member)>(bits);                   \
      }

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr const char* kBit = "0 or 1";

// Hash-only rows have neither key nor flag: the library's callers set
// them in code.
const OptionRow kRows[] = {
    {nullptr, nullptr, {}, nullptr, XTV_FIELD(prune.ratio_threshold)},
    {nullptr, nullptr, {}, nullptr, XTV_FIELD(prune.abs_floor)},
    {nullptr, nullptr, {}, nullptr, XTV_FIELD(prune.max_aggressors)},
    {nullptr, nullptr, {}, nullptr, XTV_FIELD(prune.use_driver_strength)},
    {nullptr, nullptr, {}, nullptr, XTV_FIELD(glitch.driver_model)},
    {nullptr, nullptr, {}, nullptr, XTV_FIELD(glitch.fixed_resistance)},
    {"tstop", nullptr, {0.0, kInf, true}, "a time > 0",
     XTV_FIELD(glitch.tstop)},
    {nullptr, nullptr, {}, nullptr, XTV_FIELD(glitch.dt)},
    {"mor_order", "--mor-order", {0.0}, "an integer (0 = automatic)",
     XTV_FIELD(glitch.mor.max_order)},
    {nullptr, nullptr, {}, nullptr, XTV_FIELD(glitch.mor.deflation_tol)},
    {"align", nullptr, {}, kBit, XTV_FIELD(glitch.align_aggressors)},
    {nullptr, nullptr, {}, nullptr, XTV_FIELD(glitch.spice_exploit_linearity)},
    {nullptr, nullptr, {}, nullptr, XTV_FIELD(glitch.default_switch_time)},
    {"threshold", nullptr, {0.0, 1.0, true}, "a fraction in (0,1]",
     XTV_FIELD(glitch_threshold)},
    {"latch_only", nullptr, {}, kBit, XTV_FIELD(latch_inputs_only)},
    // The deleted max_victims' default, so that older hashes stay valid.
    {nullptr, nullptr, {}, nullptr, OptionRow::Type::kUnsigned,
     [](const VerifierOptions&) -> std::uint64_t { return 0; },
     [](VerifierOptions&, std::uint64_t) {}},
    {"delay", nullptr, {}, kBit, XTV_FIELD(analyze_delay_change)},
    {"screen", nullptr, {}, kBit, XTV_FIELD(use_noise_screen)},
    {"em_limit", nullptr, {0.0}, "a value >= 0", XTV_FIELD(em_rms_limit)},
    // Budgets affect results: they decide which findings become bounds.
    // threads, processes, journal_path and resume only schedule, and have
    // no row.
    {"cluster_deadline_ms", "--cluster-deadline-ms", {0.0, 1e12},
     "a budget >= 0 ms", XTV_FIELD(cluster_deadline_ms)},
    // The model cache reuses bit-identical payloads, but a cache hit skips
    // the Krylov-stage memory charges, so under a cluster memory budget
    // the cache on/off decision can steer a finding between kAnalyzed and
    // kResourceBound.
    {"cache_mb", "--model-cache-mb", {0.0, 1e9}, "a size >= 0 MiB",
     XTV_FIELD(model_cache_mb)},
    {"cluster_mem_mb", "--cluster-mem-mb", {0.0, 1e9}, "a size >= 0 MiB",
     XTV_FIELD(cluster_mem_mb)},
    {nullptr, "--global-mem-soft-mb", {0.0, 1e9}, "a size >= 0 MiB",
     XTV_FIELD(global_mem_soft_mb)},
    // Certification and audit knobs all steer statuses, escalations, or
    // the audit fields of findings.
    {"certify", "--certify", {}, kBit, XTV_FIELD(certify)},
    {"cert_tol", "--cert-tol", {0.0, 1.0, true}, "a tolerance in (0,1]",
     XTV_FIELD(cert_rel_tol)},
    {"cert_freqs", "--cert-freqs", {1.0}, "an integer >= 1",
     XTV_FIELD(cert_freqs)},
    {"max_mor_order", "--max-mor-order", {1.0}, "an integer >= 1",
     XTV_FIELD(max_mor_order)},
    {"mor_step", nullptr, {1.0}, "an integer >= 1", XTV_FIELD(mor_order_step)},
    {"audit_fraction", "--audit-fraction", {0.0, 1.0}, "a fraction in [0,1]",
     XTV_FIELD(audit_fraction)},
    {"audit_seed", nullptr, {0.0}, "an unsigned integer",
     XTV_FIELD(audit_seed)},
    {nullptr, "--audit-peak-tol", {0.0, 1.0}, "a fraction in [0,1]",
     XTV_FIELD(audit_peak_tol_frac)},
    {nullptr, nullptr, {}, nullptr, XTV_FIELD(audit_time_tol)},
    // Canonical caching changes which payload serves a victim (certified-
    // equivalent, not bit-identical), so both knobs are result-affecting.
    {"canonical_cache", "--canonical-cache", {}, kBit,
     XTV_FIELD(canonical_cache)},
    {"canonical_tol", "--canonical-cache-tol", {0.0, 1.0, true},
     "a relative tolerance in (0,1]", XTV_FIELD(canonical_cache_tol)},
    // The reduced transient's step tolerance moves every peak it computes.
    {nullptr, nullptr, {}, nullptr, XTV_FIELD(glitch.lte_vtol)},
};

}  // namespace

std::span<const OptionRow> option_rows() { return kRows; }

const OptionRow* option_by_key(std::string_view key) {
  for (const OptionRow& row : kRows)
    if (row.key && key == row.key) return &row;
  return nullptr;
}

const OptionRow* option_by_flag(std::string_view flag) {
  for (const OptionRow& row : kRows)
    if (row.flag && flag == row.flag) return &row;
  return nullptr;
}

bool set_option(const OptionRow& row, std::string_view text,
                VerifierOptions* options) {
  std::uint64_t bits = 0;
  switch (row.type) {
    case OptionRow::Type::kBool:
      if (text != "0" && text != "1") return false;
      bits = text == "1";
      break;
    case OptionRow::Type::kUnsigned:
      if (!parse_unsigned(text, &bits) ||
          !row.range.contains(static_cast<double>(bits)))
        return false;
      break;
    case OptionRow::Type::kDouble: {
      double v = 0.0;
      if (!parse_finite(text, &v, row.range)) return false;
      bits = bits_of(v);
      break;
    }
  }
  row.set(*options, bits);
  return true;
}

std::string format_option(const OptionRow& row,
                          const VerifierOptions& options) {
  const std::uint64_t bits = row.get(options);
  if (row.type != OptionRow::Type::kDouble) return std::to_string(bits);
  return format_hexfloat(std::bit_cast<double>(bits));
}

std::uint64_t options_result_hash(const VerifierOptions& options) {
  // Doubles hash by bit pattern: two option sets are "the same" exactly
  // when every field is bit-equal, which is also the precondition for
  // bit-identical findings.
  std::uint64_t h = 1469598103934665603ull;  // the FNV-1a offset basis
  for (const OptionRow& row : kRows) h = fnv1a_mix64(h, row.get(options));
  return h;
}

VerifierOptions audit_default_options() {
  VerifierOptions options;
  options.glitch_threshold = 0.10;
  options.glitch.align_aggressors = true;
  options.glitch.tstop = 4e-9;
  options.model_cache_mb = 64.0;
  return options;
}

}  // namespace xtv
