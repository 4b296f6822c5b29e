// Crash-safe result journal for resumable chip verification.
//
// A full-chip audit is a multi-hour batch job; a killed process must not
// forfeit the victims already analyzed. With a journal path set,
// verify() keeps two files:
//
//   <journal>.shard0  the insurance file: every settled eligible victim
//                     (screened-out or fully analyzed) is appended in
//                     settle order and fsync'd before anyone sees it, on
//                     every backend;
//   <journal>         the result: written once, atomically, in stable
//                     candidate order when the sweep ends, after which
//                     the insurance file is removed.
//
// Both use one line format:
//
//   xtvjh <options-hash>                      (header, first line)
//   xtvj2 <payload> <fnv1a-64 checksum of payload>\n
//
// The header stamps the FNV-1a hash of the result-affecting
// VerifierOptions (see options_result_hash); a --resume against a journal
// written under different options is refused instead of silently merging
// incomparable findings.
//
// Doubles are serialized as C hexfloats, so a journaled finding
// round-trips bit-exactly and a resumed run reproduces the uninterrupted
// report verbatim.
//
// A process killed mid-append leaves a torn final line; load() verifies
// each record's checksum and field count and stops at the first bad one,
// returning only the intact prefix. A resume reads a killed run's records
// through load_run_journal(): the result file, then the insurance file.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/verifier.h"

namespace xtv {

/// One journaled victim outcome. Screened victims carry only accounting
/// fields (net, cpu, aggressor-drop counters); analyzed ones the full
/// finding.
struct JournalRecord {
  bool screened = false;
  VictimFinding finding;
};

/// Serializes a record to its single-line journal payload (no checksum
/// framing) and back. Exposed for tests; round-trips bit-exactly.
std::string journal_encode(const JournalRecord& record);

/// Decodes a payload line; returns false on any malformed field.
bool journal_decode(const std::string& payload, JournalRecord& record);

/// The token codec journal lines share with serve spec files and wire
/// payloads. escape_token %XX-escapes free-form text (error messages,
/// crash reasons; any byte) into one space-free token, empty as "-";
/// unescape_token inverts it.
std::string escape_token(const std::string& s);
bool unescape_token(const std::string& s, std::string* out);

/// A double as C hexfloat text, which round-trips bit-exactly: what makes
/// a resumed report identical to an uninterrupted one, and a re-parsed
/// serve spec's options hash equal to the submitted one.
std::string format_hexfloat(double v);
/// Parses a whole token (hexfloat or decimal) as a double.
bool parse_double_token(const std::string& s, double* out);

/// The insurance file of the journal at `base`: `<base>.shard0`. The name
/// is the one older builds gave their coordinator's journal, so a file a
/// killed older run left behind still folds into a resume.
std::string journal_insurance_path(const std::string& base);

/// A run's settled records, keyed by net, as a resume or the serve daemon
/// reads them back.
struct RunJournal {
  std::map<std::size_t, JournalRecord> records;
  /// `base` holds intact bytes without a header or under another options
  /// hash, so it added nothing; `base_hash` is its header hash (0 when
  /// there is none). A resume refuses such a journal.
  bool base_mismatch = false;
  std::uint64_t base_hash = 0;
  /// Some record came from the insurance file.
  bool folded_insurance = false;
};

/// Loads the intact records of `base`, then those of its insurance file
/// on top. A file whose header does not carry `options_hash` adds
/// nothing (a mismatched insurance file is logged).
RunJournal load_run_journal(const std::string& base,
                            std::uint64_t options_hash);

class ResultJournal {
 public:
  struct LoadResult {
    std::vector<JournalRecord> records;
    /// Byte offset just past the last intact record.
    long valid_bytes = 0;
    /// True when bytes past valid_bytes were present: a torn or corrupt
    /// tail, or the `xtvjc <victim> <signal>` crash-marker line older
    /// builds' shard workers wrote as their last words.
    bool tail_discarded = false;
    /// Header line present and intact; `header_hash` is its options hash.
    bool has_header = false;
    std::uint64_t header_hash = 0;
  };

  /// Reads every intact record of `path`. A missing file is an empty
  /// journal, not an error.
  static LoadResult load(const std::string& path);

  /// Creates `path` (truncating any old file) with a header stamping
  /// `options_hash`. Throws NumericalError(kInvalidInput) when the file
  /// cannot be opened.
  ResultJournal(const std::string& path, std::uint64_t options_hash);
  ~ResultJournal();

  ResultJournal(const ResultJournal&) = delete;
  ResultJournal& operator=(const ResultJournal&) = delete;

  /// Appends one record and fsyncs it before returning (thread-safe), so
  /// a kill loses at most the record being written.
  void append(const JournalRecord& record);

  /// Torn-write-proof one-shot journal write: serializes the header and
  /// `records` into `path + ".tmp"`, fsyncs the file, atomically
  /// rename()s it over `path`, then fsyncs the containing directory — a
  /// reader (or a resume) sees either the complete old journal or the
  /// complete new one, never a half-written merge. verify() finalizes
  /// every run's journal through it.
  static void write_atomic(const std::string& path,
                           const std::vector<const JournalRecord*>& records,
                           std::uint64_t options_hash);

 private:
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
};

}  // namespace xtv
