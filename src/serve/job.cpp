#include "serve/job.h"

#include <fcntl.h>
#include <unistd.h>

#include "util/atomic_file.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace xtv {
namespace serve {

namespace {

constexpr const char* kSpecMagic = "xtvss";
constexpr const char* kDoneMagic = "xtvsd";

bool parse_size_text(const std::string& s, std::size_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

bool parse_long_text(const std::string& s, long* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool parse_bool_text(const std::string& s, bool* out) {
  if (s == "0") { *out = false; return true; }
  if (s == "1") { *out = true; return true; }
  return false;
}

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kBackoff: return "backoff";
    case JobState::kDone: return "done";
    case JobState::kConceded: return "conceded";
  }
  return "unknown";
}

bool parse_job_state(const std::string& name, JobState* out) {
  for (JobState s : {JobState::kQueued, JobState::kRunning, JobState::kBackoff,
                     JobState::kDone, JobState::kConceded}) {
    if (name == job_state_name(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

JobSpec::JobSpec() {
  // chip_audit parity (see examples/chip_audit.cpp): an empty spec and a
  // bare chip_audit invocation share one options hash, so their journals
  // are interchangeable and bit-identical.
  options.glitch_threshold = 0.10;
  options.glitch.align_aggressors = true;
  options.glitch.tstop = 4e-9;
  options.model_cache_mb = 64.0;
}

bool JobSpec::parse(const std::string& text, JobSpec* spec,
                    std::string* error) {
  JobSpec out;
  bool saw_inline_design = false;  // nets=/rows=/chip_seed=
  bool saw_design_file = false;    // design=PATH
  std::istringstream in(text);
  for (std::string tok; in >> tok;) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      if (error) *error = "malformed token \"" + tok + "\" (want key=value)";
      return false;
    }
    const std::string k = tok.substr(0, eq);
    const std::string v = tok.substr(eq + 1);
    auto bad = [&](const char* want) {
      if (error) *error = k + " expects " + want + ", got \"" + v + "\"";
      return false;
    };
    double d = 0.0;
    std::size_t z = 0;
    long l = 0;
    bool b = false;
    if (k == "threshold") {
      if (!parse_double_token(v, &d) || d <= 0.0 || d > 1.0)
        return bad("a fraction in (0,1]");
      out.options.glitch_threshold = d;
    } else if (k == "latch_only") {
      if (!parse_bool_text(v, &b)) return bad("0 or 1");
      out.options.latch_inputs_only = b;
    } else if (k == "delay") {
      if (!parse_bool_text(v, &b)) return bad("0 or 1");
      out.options.analyze_delay_change = b;
    } else if (k == "screen") {
      if (!parse_bool_text(v, &b)) return bad("0 or 1");
      out.options.use_noise_screen = b;
    } else if (k == "em_limit") {
      if (!parse_double_token(v, &d) || d < 0.0) return bad("a value >= 0");
      out.options.em_rms_limit = d;
    } else if (k == "align") {
      if (!parse_bool_text(v, &b)) return bad("0 or 1");
      out.options.glitch.align_aggressors = b;
    } else if (k == "tstop") {
      if (!parse_double_token(v, &d) || d <= 0.0) return bad("a time > 0");
      out.options.glitch.tstop = d;
    } else if (k == "mor_order") {
      if (!parse_size_text(v, &z)) return bad("an integer (0 = automatic)");
      out.options.glitch.mor.max_order = z;
    } else if (k == "certify") {
      if (!parse_bool_text(v, &b)) return bad("0 or 1");
      out.options.certify = b;
    } else if (k == "cert_tol") {
      if (!parse_double_token(v, &d) || d <= 0.0) return bad("a value > 0");
      out.options.cert_rel_tol = d;
    } else if (k == "cert_freqs") {
      if (!parse_size_text(v, &z) || z < 1) return bad("an integer >= 1");
      out.options.cert_freqs = z;
    } else if (k == "max_mor_order") {
      if (!parse_size_text(v, &z) || z < 1) return bad("an integer >= 1");
      out.options.max_mor_order = z;
    } else if (k == "mor_step") {
      if (!parse_size_text(v, &z) || z < 1) return bad("an integer >= 1");
      out.options.mor_order_step = z;
    } else if (k == "audit_fraction") {
      if (!parse_double_token(v, &d) || d < 0.0 || d > 1.0)
        return bad("a fraction in [0,1]");
      out.options.audit_fraction = d;
    } else if (k == "audit_seed") {
      if (!parse_size_text(v, &z)) return bad("an unsigned integer");
      out.options.audit_seed = z;
    } else if (k == "cache_mb") {
      if (!parse_double_token(v, &d) || d < 0.0) return bad("a size >= 0");
      out.options.model_cache_mb = d;
    } else if (k == "canonical_cache") {
      if (!parse_bool_text(v, &b)) return bad("0 or 1");
      out.options.canonical_cache = b;
    } else if (k == "canonical_tol") {
      if (!parse_double_token(v, &d) || d <= 0.0 || d > 1.0)
        return bad("a relative tolerance in (0,1]");
      out.options.canonical_cache_tol = d;
    } else if (k == "cluster_deadline_ms") {
      if (!parse_double_token(v, &d) || d < 0.0) return bad("a value >= 0");
      out.options.cluster_deadline_ms = d;
    } else if (k == "cluster_mem_mb") {
      if (!parse_double_token(v, &d) || d < 0.0) return bad("a size >= 0");
      out.options.cluster_mem_mb = d;
    } else if (k == "processes") {
      if (!parse_size_text(v, &z)) return bad("an integer >= 0");
      out.processes = z;
    } else if (k == "heartbeat_ms") {
      if (!parse_double_token(v, &d) || d <= 0.0) return bad("a period > 0");
      out.heartbeat_ms = d;
    } else if (k == "deadline_ms") {
      if (!parse_double_token(v, &d)) return bad("a value in ms");
      out.deadline_ms = d;
    } else if (k == "retries") {
      if (!parse_long_text(v, &l)) return bad("an integer");
      out.retries = l;
    } else if (k == "nets") {
      if (!parse_size_text(v, &z)) return bad("an integer (0 = resident design)");
      out.design_nets = z;
      saw_inline_design = saw_inline_design || z != 0;
    } else if (k == "rows") {
      if (!parse_size_text(v, &z)) return bad("an integer (0 = generator default)");
      out.design_rows = z;
      saw_inline_design = saw_inline_design || z != 0;
    } else if (k == "chip_seed") {
      if (!parse_size_text(v, &z)) return bad("an unsigned integer");
      out.design_seed = z;
      saw_inline_design = saw_inline_design || z != 0;
    } else if (k == "design") {
      if (saw_design_file) return bad("at most one design= per spec");
      std::string derr;
      if (!load_design_ref_file(v, &out.design_nets, &out.design_rows,
                                &out.design_seed, &derr)) {
        if (error) *error = derr;
        return false;
      }
      saw_design_file = true;
    } else if (k == "mem_mb") {
      if (!parse_double_token(v, &d) || d < 0.0) return bad("a size >= 0");
      out.mem_mb = d;
    } else {
      if (error) *error = "unknown spec key \"" + k + "\"";
      return false;
    }
  }
  if (saw_design_file && saw_inline_design) {
    if (error) *error = "design= conflicts with nets=/rows=/chip_seed=";
    return false;
  }
  if (out.design_nets == 0 && (out.design_rows != 0 || out.design_seed != 0)) {
    if (error) *error = "rows=/chip_seed= require nets= (a per-job design)";
    return false;
  }
  *spec = std::move(out);
  return true;
}

bool load_design_ref_file(const std::string& path, std::size_t* nets,
                          std::size_t* rows, std::uint64_t* seed,
                          std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot read design file " + path;
    return false;
  }
  std::string line;
  if (!std::getline(in, line)) {
    if (error) *error = "empty design file " + path;
    return false;
  }
  std::istringstream lin(line);
  std::string magic;
  if (!(lin >> magic) || magic != "xtvds") {
    if (error) *error = "design file " + path + " is not an xtvds file";
    return false;
  }
  std::size_t n = 0, r = 0, s = 0;
  for (std::string tok; lin >> tok;) {
    const std::size_t eq = tok.find('=');
    const std::string k = eq == std::string::npos ? tok : tok.substr(0, eq);
    const std::string v = eq == std::string::npos ? "" : tok.substr(eq + 1);
    std::size_t z = 0;
    if (!parse_size_text(v, &z) ||
        (k != "nets" && k != "rows" && k != "seed")) {
      if (error) *error = "design file " + path + ": bad token \"" + tok + "\"";
      return false;
    }
    if (k == "nets") n = z;
    else if (k == "rows") r = z;
    else s = z;
  }
  if (n == 0) {
    if (error) *error = "design file " + path + " must set nets=N (N >= 1)";
    return false;
  }
  *nets = n;
  *rows = r;
  *seed = s;
  return true;
}

std::string JobSpec::to_text() const {
  std::ostringstream out;
  out << "threshold=" << format_hexfloat(options.glitch_threshold)
      << " latch_only=" << (options.latch_inputs_only ? 1 : 0)
      << " delay=" << (options.analyze_delay_change ? 1 : 0)
      << " screen=" << (options.use_noise_screen ? 1 : 0)
      << " em_limit=" << format_hexfloat(options.em_rms_limit)
      << " align=" << (options.glitch.align_aggressors ? 1 : 0)
      << " tstop=" << format_hexfloat(options.glitch.tstop)
      << " mor_order=" << options.glitch.mor.max_order
      << " certify=" << (options.certify ? 1 : 0)
      << " cert_tol=" << format_hexfloat(options.cert_rel_tol)
      << " cert_freqs=" << options.cert_freqs
      << " max_mor_order=" << options.max_mor_order
      << " mor_step=" << options.mor_order_step
      << " audit_fraction=" << format_hexfloat(options.audit_fraction)
      << " audit_seed=" << options.audit_seed
      << " cache_mb=" << format_hexfloat(options.model_cache_mb)
      << " canonical_cache=" << (options.canonical_cache ? 1 : 0)
      << " canonical_tol=" << format_hexfloat(options.canonical_cache_tol)
      << " cluster_deadline_ms=" << format_hexfloat(options.cluster_deadline_ms)
      << " cluster_mem_mb=" << format_hexfloat(options.cluster_mem_mb)
      << " nets=" << design_nets
      << " rows=" << design_rows
      << " chip_seed=" << design_seed
      << " mem_mb=" << format_hexfloat(mem_mb)
      << " processes=" << processes
      << " heartbeat_ms=" << format_hexfloat(heartbeat_ms)
      << " deadline_ms=" << format_hexfloat(deadline_ms)
      << " retries=" << retries;
  return out.str();
}

VerifierOptions JobSpec::to_options() const {
  VerifierOptions vo = options;
  vo.processes = processes;
  vo.shard_heartbeat_ms = heartbeat_ms;
  return vo;
}

std::uint64_t JobSpec::options_hash() const {
  return options_result_hash(to_options());
}

namespace {

/// FNV-1a step over the 8 little-endian bytes of `v`.
std::uint64_t fnv_mix64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::uint64_t JobSpec::key() const {
  std::uint64_t h = options_hash();
  if (!has_design_ref()) return h;  // resident design: key == journal hash
  h = fnv_mix64(h, 0x7874766473ull);  // "xtvds" tag: separates the domains
  h = fnv_mix64(h, design_nets);
  h = fnv_mix64(h, design_rows);
  h = fnv_mix64(h, design_seed);
  return h;
}

std::string job_key_hex(std::uint64_t key) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, key);
  return buf;
}

bool parse_job_key(const std::string& hex, std::uint64_t* key) {
  if (hex.size() != 16) return false;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(hex.c_str(), &end, 16);
  if (end != hex.c_str() + hex.size()) return false;
  *key = v;
  return true;
}

JobPaths job_paths(const std::string& jobs_dir, std::uint64_t key) {
  const std::string base = jobs_dir + "/job_" + job_key_hex(key);
  JobPaths p;
  p.spec = base + ".spec";
  p.journal = base + ".xtvj";
  p.done = base + ".done";
  p.pid = base + ".pid";
  return p;
}

bool write_spec_file(const std::string& path, const JobSpec& spec,
                     std::size_t attempts, std::string* error) {
  std::ostringstream out;
  out << kSpecMagic << ' ' << job_key_hex(spec.key()) << ' ' << attempts
      << '\n'
      << spec.to_text() << '\n';
  return write_file_atomic(path, out.str(), error);
}

bool load_spec_file(const std::string& path, JobSpec* spec,
                    std::size_t* attempts, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::string header, spec_text;
  if (!std::getline(in, header) || !std::getline(in, spec_text)) {
    if (error) *error = "truncated spec file " + path;
    return false;
  }
  std::istringstream hin(header);
  std::string magic, key_hex;
  std::size_t att = 0;
  if (!(hin >> magic >> key_hex >> att) || magic != kSpecMagic) {
    if (error) *error = "bad spec header in " + path;
    return false;
  }
  std::uint64_t key = 0;
  if (!parse_job_key(key_hex, &key)) {
    if (error) *error = "bad job key in " + path;
    return false;
  }
  JobSpec parsed;
  if (!JobSpec::parse(spec_text, &parsed, error)) return false;
  if (parsed.key() != key) {
    // The spec no longer hashes to the key it was filed under — the file
    // was tampered with or corrupted; refusing beats running the wrong
    // options against the keyed journal.
    if (error)
      *error = "spec in " + path + " hashes to " + job_key_hex(parsed.key()) +
               ", expected " + key_hex;
    return false;
  }
  *spec = std::move(parsed);
  if (attempts) *attempts = att;
  return true;
}

bool write_done_file(const std::string& path, std::uint64_t key,
                     JobState terminal, const std::string& summary,
                     std::string* error) {
  std::ostringstream out;
  out << kDoneMagic << ' ' << job_key_hex(key) << ' '
      << job_state_name(terminal) << ' ' << serve_escape(summary) << '\n';
  return write_file_atomic(path, out.str(), error);
}

bool load_done_file(const std::string& path, std::uint64_t* key,
                    JobState* terminal, std::string* summary) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line)) return false;
  std::istringstream lin(line);
  std::string magic, key_hex, state_name, escaped;
  if (!(lin >> magic >> key_hex >> state_name >> escaped) ||
      magic != kDoneMagic)
    return false;
  std::uint64_t k = 0;
  JobState s;
  std::string text;
  if (!parse_job_key(key_hex, &k) || !parse_job_state(state_name, &s) ||
      !serve_unescape(escaped, &text))
    return false;
  if (s != JobState::kDone && s != JobState::kConceded) return false;
  if (key) *key = k;
  if (terminal) *terminal = s;
  if (summary) *summary = text;
  return true;
}

}  // namespace serve
}  // namespace xtv
