#include "core/journal.h"

#include <unistd.h>

#include <cinttypes>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sstream>

#include "util/log.h"
#include "util/parse.h"
#include "util/status.h"

namespace xtv {

namespace {

// Record format v2 ("xtvj2") appends the certification and audit fields;
// v1 journals fail the magic check and are treated as a torn tail, and a
// resume across the version bump is independently refused by the options
// hash (the new knobs are hashed).
constexpr const char* kMagic = "xtvj2";
constexpr const char* kHeaderMagic = "xtvjh";
constexpr std::size_t kFieldCount = 25;

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// One checksummed journal line for `record` (newline included).
std::string format_record_line(const JournalRecord& record) {
  const std::string payload = journal_encode(record);
  char checksum[24];
  std::snprintf(checksum, sizeof(checksum), "%016" PRIx64, fnv1a64(payload));
  return std::string(kMagic) + ' ' + payload + ' ' + checksum + '\n';
}

std::string format_header_line(std::uint64_t options_hash) {
  char line[40];
  std::snprintf(line, sizeof(line), "%s %016" PRIx64 "\n", kHeaderMagic,
                options_hash);
  return line;
}

/// fsyncs the directory containing `path`, making a just-completed
/// rename() durable (a crash after rename but before the directory hits
/// disk could otherwise resurrect the old name).
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::string escape_token(const std::string& s) {
  if (s.empty()) return "-";
  std::string out;
  out.reserve(s.size());
  char buf[4];
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c <= 0x20 || c > 0x7e || c == '%' || (i == 0 && c == '-')) {
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

bool unescape_token(const std::string& s, std::string* out) {
  out->clear();
  if (s == "-") return true;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%') {
      std::uint64_t v = 0;
      if (i + 2 >= s.size() ||
          !parse_unsigned(std::string_view(s).substr(i + 1, 2), &v, 16))
        return false;
      *out += static_cast<char>(v);
      i += 2;
    } else {
      *out += s[i];
    }
  }
  return true;
}

std::string journal_insurance_path(const std::string& base) {
  return base + ".shard0";
}

std::string journal_encode(const JournalRecord& record) {
  const VictimFinding& f = record.finding;
  std::ostringstream out;
  out << (record.screened ? 1 : 0) << ' ' << f.net << ' '
      << static_cast<int>(f.status) << ' ' << f.retries << ' '
      << static_cast<int>(f.error_code) << ' ' << escape_token(f.error) << ' '
      << format_hexfloat(f.peak) << ' ' << format_hexfloat(f.peak_fraction)
      << ' ' << (f.violation ? 1 : 0) << ' ' << f.aggressors_analyzed << ' '
      << f.aggressors_dropped_by_correlation << ' '
      << f.aggressors_dropped_by_window << ' '
      << format_hexfloat(f.cpu_seconds) << ' ' << f.reduced_order << ' '
      << format_hexfloat(f.delay_decoupled) << ' '
      << format_hexfloat(f.delay_coupled) << ' '
      << format_hexfloat(f.driver_rms_current) << ' '
      << (f.em_violation ? 1 : 0) << ' ' << (f.certified ? 1 : 0) << ' '
      << format_hexfloat(f.cert_max_rel_err) << ' '
      << f.cert_order_escalations << ' ' << (f.audited ? 1 : 0) << ' '
      << (f.audit_pass ? 1 : 0) << ' ' << format_hexfloat(f.audit_peak_err)
      << ' ' << format_hexfloat(f.audit_time_err);
  return out.str();
}

bool journal_decode(const std::string& payload, JournalRecord& record) {
  std::vector<std::string> tok;
  std::istringstream in(payload);
  for (std::string t; in >> t;) tok.push_back(std::move(t));
  if (tok.size() != kFieldCount) return false;

  VictimFinding f;
  std::size_t screened = 0, status = 0, code = 0, violation = 0, em = 0;
  std::size_t certified = 0, audited = 0, audit_pass = 0;
  if (!parse_unsigned(tok[0], &screened) || screened > 1) return false;
  if (!parse_unsigned(tok[1], &f.net)) return false;
  if (!parse_unsigned(tok[2], &status) ||
      status > static_cast<std::size_t>(FindingStatus::kShardCrashed))
    return false;
  if (!parse_unsigned(tok[3], &f.retries)) return false;
  if (!parse_unsigned(tok[4], &code) ||
      code > static_cast<std::size_t>(StatusCode::kWorkerCrashed))
    return false;
  if (!unescape_token(tok[5], &f.error)) return false;
  if (!parse_double_token(tok[6], &f.peak)) return false;
  if (!parse_double_token(tok[7], &f.peak_fraction)) return false;
  if (!parse_unsigned(tok[8], &violation) || violation > 1) return false;
  if (!parse_unsigned(tok[9], &f.aggressors_analyzed)) return false;
  if (!parse_unsigned(tok[10], &f.aggressors_dropped_by_correlation))
    return false;
  if (!parse_unsigned(tok[11], &f.aggressors_dropped_by_window)) return false;
  if (!parse_double_token(tok[12], &f.cpu_seconds)) return false;
  if (!parse_unsigned(tok[13], &f.reduced_order)) return false;
  if (!parse_double_token(tok[14], &f.delay_decoupled)) return false;
  if (!parse_double_token(tok[15], &f.delay_coupled)) return false;
  if (!parse_double_token(tok[16], &f.driver_rms_current)) return false;
  if (!parse_unsigned(tok[17], &em) || em > 1) return false;
  if (!parse_unsigned(tok[18], &certified) || certified > 1) return false;
  if (!parse_double_token(tok[19], &f.cert_max_rel_err)) return false;
  if (!parse_unsigned(tok[20], &f.cert_order_escalations)) return false;
  if (!parse_unsigned(tok[21], &audited) || audited > 1) return false;
  if (!parse_unsigned(tok[22], &audit_pass) || audit_pass > 1) return false;
  if (!parse_double_token(tok[23], &f.audit_peak_err)) return false;
  if (!parse_double_token(tok[24], &f.audit_time_err)) return false;

  f.status = static_cast<FindingStatus>(status);
  f.error_code = static_cast<StatusCode>(code);
  f.violation = violation != 0;
  f.em_violation = em != 0;
  f.certified = certified != 0;
  f.audited = audited != 0;
  f.audit_pass = audit_pass != 0;
  record.screened = screened != 0;
  record.finding = std::move(f);
  return true;
}

ResultJournal::LoadResult ResultJournal::load(const std::string& path) {
  LoadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) return result;

  long file_bytes = 0;
  {
    in.seekg(0, std::ios::end);
    file_bytes = static_cast<long>(in.tellg());
    in.seekg(0, std::ios::beg);
  }

  const std::size_t magic_len = std::strlen(kMagic);
  std::string line;
  bool first_line = true;
  while (std::getline(in, line)) {
    // A record is only intact if its terminating newline made it to disk:
    // getline at EOF without the delimiter is exactly the torn-write case.
    const bool has_newline =
        result.valid_bytes + static_cast<long>(line.size()) < file_bytes;
    if (!has_newline) break;
    if (first_line) {
      first_line = false;
      // Optional header: "xtvjh <16-hex options hash>".
      if (line.compare(0, magic_len, kHeaderMagic) == 0 &&
          line.size() > magic_len + 1 && line[magic_len] == ' ') {
        std::uint64_t hash = 0;
        if (!parse_unsigned(std::string_view(line).substr(magic_len + 1),
                            &hash, 16))
          break;
        result.has_header = true;
        result.header_hash = hash;
        result.valid_bytes += static_cast<long>(line.size()) + 1;
        continue;
      }
    }
    // Anything but a record ends the intact prefix — including the
    // "xtvjc <victim> <signal>" crash marker older builds' shard workers
    // appended as their last words, which a resume then truncates.
    if (line.compare(0, magic_len, kMagic) != 0 ||
        line.size() <= magic_len + 1 || line[magic_len] != ' ')
      break;
    const std::size_t checksum_at = line.rfind(' ');
    if (checksum_at == std::string::npos || checksum_at <= magic_len) break;
    const std::string payload =
        line.substr(magic_len + 1, checksum_at - magic_len - 1);
    std::uint64_t checksum = 0;
    if (!parse_unsigned(std::string_view(line).substr(checksum_at + 1),
                        &checksum, 16) ||
        checksum != fnv1a64(payload))
      break;
    JournalRecord record;
    if (!journal_decode(payload, record)) break;
    result.records.push_back(std::move(record));
    result.valid_bytes += static_cast<long>(line.size()) + 1;
  }
  result.tail_discarded = result.valid_bytes < file_bytes;
  return result;
}

ResultJournal::ResultJournal(const std::string& path,
                             std::uint64_t options_hash)
    : file_(std::fopen(path.c_str(), "wb")) {
  if (!file_)
    throw NumericalError(StatusCode::kInvalidInput,
                         "ResultJournal: cannot open " + path);
  const std::string line = format_header_line(options_hash);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
  fsync(fileno(file_));
}

void ResultJournal::write_atomic(const std::string& path,
                                 const std::vector<const JournalRecord*>& records,
                                 std::uint64_t options_hash) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f)
    throw NumericalError(StatusCode::kInvalidInput,
                         "ResultJournal: cannot open " + tmp);
  bool ok = true;
  const std::string header = format_header_line(options_hash);
  ok = ok && std::fwrite(header.data(), 1, header.size(), f) == header.size();
  for (const JournalRecord* rec : records) {
    const std::string line = format_record_line(*rec);
    ok = ok && std::fwrite(line.data(), 1, line.size(), f) == line.size();
  }
  ok = ok && std::fflush(f) == 0;
  ok = ok && ::fsync(fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    throw NumericalError(StatusCode::kInternal,
                         "ResultJournal: short write finalizing " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw NumericalError(StatusCode::kInternal,
                         "ResultJournal: cannot rename " + tmp + " over " + path);
  }
  fsync_parent_dir(path);
}

ResultJournal::~ResultJournal() { std::fclose(file_); }

void ResultJournal::append(const JournalRecord& record) {
  const std::string line = format_record_line(record);

  std::lock_guard<std::mutex> lock(mutex_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
  fsync(fileno(file_));
}

RunJournal load_run_journal(const std::string& base,
                            std::uint64_t options_hash) {
  RunJournal run;
  ResultJournal::LoadResult prior = ResultJournal::load(base);
  run.base_hash = prior.header_hash;
  if (prior.has_header && prior.header_hash == options_hash) {
    for (auto& rec : prior.records)
      run.records.insert_or_assign(rec.finding.net, std::move(rec));
  } else {
    run.base_mismatch = prior.valid_bytes > 0;
  }
  const std::string insurance = journal_insurance_path(base);
  ResultJournal::LoadResult extra = ResultJournal::load(insurance);
  if (extra.has_header && extra.header_hash == options_hash) {
    for (auto& rec : extra.records) {
      run.records.insert_or_assign(rec.finding.net, std::move(rec));
      run.folded_insurance = true;
    }
  } else if (extra.valid_bytes > 0) {
    logf(LogLevel::kWarn, "journal: ignoring %s (options hash mismatch)",
         insurance.c_str());
  }
  return run;
}

}  // namespace xtv
