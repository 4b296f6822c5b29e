// Crash-safe result journal for resumable chip verification.
//
// A full-chip audit is a multi-hour batch job; a killed process must not
// forfeit the victims already analyzed. The verifier therefore appends
// one record per *completed* eligible victim (screened-out or fully
// analyzed) to an append-only text journal:
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
// report verbatim. Appends are batched and fsync'd every `flush_every`
// records (and on close), bounding lost work to one batch.
//
// A process killed mid-write leaves a torn final line; load() verifies
// each record's checksum and field count and stops at the first bad one,
// returning only the intact prefix plus its byte offset so the writer
// can truncate the torn tail before appending fresh records.
#pragma once

#include <cstdint>
#include <cstdio>
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

/// Shard journal path `<base>.shard<k>`: the lease coordinator's
/// insurance journal is shard 0 (core/shard_exec.h); older builds wrote
/// one per worker process. Centralized so the coordinator, resume, and
/// cleanup agree on the naming.
std::string journal_shard_path(const std::string& base, std::size_t k);

/// Shard indices `k` for which `<base>.shard<k>` exists on disk, sorted
/// ascending. Scans the containing directory rather than probing k = 0,
/// 1, ... until the first miss: leftover shard files need not be
/// contiguous (a crashed run under a different worker count can leave
/// `.shard3` behind without `.shard0`), and every cleanup/fold site must
/// see all of them or stale records get re-folded into a later resume.
std::vector<std::size_t> journal_list_shards(const std::string& base);

class ResultJournal {
 public:
  struct LoadResult {
    std::vector<JournalRecord> records;
    /// Byte offset just past the last intact record — the truncation
    /// point for a writer resuming after a crash.
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

  /// Opens `path` for appending. With `resume` false the file is
  /// truncated and a header stamping `options_hash` is written; with
  /// `resume` true it is truncated only past the intact prefix (discarding
  /// a torn tail), appends continue after it, and the existing header must
  /// match `options_hash` — a mismatch (or a header-less non-empty
  /// journal) throws NumericalError(kInvalidInput), as does a file that
  /// cannot be opened. Records are fsync'd every `flush_every` appends.
  ResultJournal(const std::string& path, bool resume,
                std::uint64_t options_hash = 0, std::size_t flush_every = 16);
  ~ResultJournal();

  ResultJournal(const ResultJournal&) = delete;
  ResultJournal& operator=(const ResultJournal&) = delete;

  /// Appends one record (thread-safe; workers call this directly).
  void append(const JournalRecord& record);

  /// Flushes buffered records to the OS and fsyncs.
  void flush();

  /// Torn-write-proof one-shot journal write: serializes the header and
  /// `records` into `path + ".tmp"`, fsyncs the file, atomically
  /// rename()s it over `path`, then fsyncs the containing directory — a
  /// reader (or a resume) sees either the complete old journal or the
  /// complete new one, never a half-written merge. Used by verify() to
  /// finalize the stable-order merged journal of a process or remote run.
  static void write_atomic(const std::string& path,
                           const std::vector<const JournalRecord*>& records,
                           std::uint64_t options_hash);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::size_t flush_every_;
  std::size_t unflushed_ = 0;
  std::mutex mutex_;
};

}  // namespace xtv
