#include "serve/job.h"

#include <fcntl.h>
#include <unistd.h>

#include "core/option_table.h"
#include "util/atomic_file.h"
#include "util/parse.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace xtv {
namespace serve {

namespace {

constexpr const char* kSpecMagic = "xtvss";
constexpr const char* kDoneMagic = "xtvsd";

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

JobSpec::JobSpec() : options(audit_default_options()) {}

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
    if (const OptionRow* row = option_by_key(k)) {
      if (!set_option(*row, v, &out.options)) return bad(row->want);
    } else if (k == "processes") {
      if (!parse_unsigned(v, &out.processes)) return bad("an integer >= 0");
    } else if (k == "heartbeat_ms") {
      if (!parse_finite(v, &out.heartbeat_ms, {0.0, 1e9, true}))
        return bad("a period in (0,1e9] ms");
    } else if (k == "deadline_ms") {
      // Negative values mean "daemon default", and to_text writes -1.
      if (!parse_finite(v, &out.deadline_ms)) return bad("a value in ms");
    } else if (k == "retries") {
      if (!parse_signed(v, &out.retries)) return bad("an integer");
    } else if (k == "nets") {
      if (!parse_unsigned(v, &out.design_nets))
        return bad("an integer (0 = resident design)");
      saw_inline_design = saw_inline_design || out.design_nets != 0;
    } else if (k == "rows") {
      if (!parse_unsigned(v, &out.design_rows))
        return bad("an integer (0 = generator default)");
      saw_inline_design = saw_inline_design || out.design_rows != 0;
    } else if (k == "chip_seed") {
      if (!parse_unsigned(v, &out.design_seed))
        return bad("an unsigned integer");
      saw_inline_design = saw_inline_design || out.design_seed != 0;
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
      if (!parse_finite(v, &out.mem_mb, {0.0, 1e9}))
        return bad("a size in [0,1e9] MiB");
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

DspChipOptions JobSpec::chip_options() const {
  DspChipOptions chip;
  chip.net_count = design_nets;
  if (design_rows != 0) chip.replicate_rows = design_rows;
  if (design_seed != 0) chip.seed = design_seed;
  return chip;
}

void JobSpec::set_chip_options(const DspChipOptions& chip) {
  design_nets = chip.net_count;
  design_rows = chip.replicate_rows > 1 ? chip.replicate_rows : 0;
  design_seed = chip.seed != DspChipOptions{}.seed ? chip.seed : 0;
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
    std::uint64_t z = 0;
    if (!parse_unsigned(v, &z) ||
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
  for (const OptionRow& row : option_rows())
    if (row.key) out << row.key << '=' << format_option(row, options) << ' ';
  out << "nets=" << design_nets
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

std::uint64_t JobSpec::key() const {
  std::uint64_t h = options_hash();
  if (!has_design_ref()) return h;  // resident design: key == journal hash
  h = fnv1a_mix64(h, 0x7874766473ull);  // "xtvds" tag: separates the domains
  h = fnv1a_mix64(h, design_nets);
  h = fnv1a_mix64(h, design_rows);
  h = fnv1a_mix64(h, design_seed);
  return h;
}

std::string job_key_hex(std::uint64_t key) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, key);
  return buf;
}

bool parse_job_key(const std::string& hex, std::uint64_t* key) {
  return hex.size() == 16 && parse_unsigned(hex, key, 16);
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
