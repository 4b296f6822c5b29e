// Job model for the verification service (DESIGN.md §13).
//
// A job is one ChipVerifier run, described by a short text spec
// ("threshold=0.1 certify=1 ...") that maps onto the result-affecting
// VerifierOptions plus a few scheduling knobs. A spec may also carry its
// own design reference (nets=/rows=/chip_seed=, or design=PATH naming a
// daemon-host file that resolves to those parameters); without one the
// job runs against the daemon's resident design. The job key mixes the
// options_result_hash of the resulting options with the design reference,
// so a client that resubmits after a dropped connection lands on the job
// it already submitted (idempotent dedup). Journal headers always carry
// the bare options hash (options_hash()) — what verify() itself stamps —
// which equals the key exactly when no design reference is set, keeping
// resident-design journals interchangeable with one-shot chip_audit runs.
//
// Everything a job needs to survive a daemon crash lives in the jobs
// directory as plain files keyed by the job:
//
//   job_<key>.spec   canonical spec + persisted attempt count (atomic)
//   job_<key>.xtvj   the job's crash-safe result journal (+ .shard0 while
//                    a runner sweeps)
//   job_<key>.done   terminal marker: "xtvsd <key> <done|conceded> <summary>"
//   job_<key>.pid    live runner pid, for orphan reaping after a restart
#pragma once

#include <cstdint>
#include <string>

#include "core/journal.h"
#include "core/verifier.h"

namespace xtv {
namespace serve {

/// Lifecycle of a job inside the daemon. Queued and backoff jobs exist
/// only as spec files plus queue entries; done/conceded jobs keep their
/// journal for idempotent replay.
enum class JobState {
  kQueued,    ///< admitted, waiting for a scheduler slot
  kRunning,   ///< a forked job runner is executing verify()
  kBackoff,   ///< an attempt failed; waiting out the exponential backoff
  kDone,      ///< completed normally; journal is final
  kConceded,  ///< retry budget exhausted; every missing victim was conceded
};

const char* job_state_name(JobState s);
bool parse_job_state(const std::string& name, JobState* out);

/// One verification job: result-affecting analysis options plus
/// scheduling knobs the daemon resolves at launch.
struct JobSpec {
  /// Result-affecting options, starting from chip_audit's defaults
  /// (audit_default_options()), so an empty spec reproduces a bare
  /// `chip_audit` run bit-for-bit. A spec sets the rows of
  /// core/option_table.h that have a spec key;
  /// journal_path/resume/threads/processes are owned by the daemon.
  VerifierOptions options;

  // --- Design reference (part of the job key) ---
  // design_nets == 0 means "the daemon's resident design"; rows/seed must
  // then also be 0. A nonzero design_nets names a generated chip with that
  // many nets (design_rows row tiles, chipgen seed design_seed; 0 = the
  // generator defaults). `design=PATH` in a spec resolves a daemon-host
  // design file into these fields at parse time.
  std::size_t design_nets = 0;
  std::size_t design_rows = 0;
  std::uint64_t design_seed = 0;

  // --- Scheduling (never part of the job key) ---
  std::size_t processes = 0;   ///< forked lease holders per attempt (0 = daemon default)
  double heartbeat_ms = 250.0; ///< holder heartbeat period (> 0)
  double deadline_ms = -1.0;   ///< per-attempt wall clock (<0 = daemon default, 0 = unlimited)
  long retries = -1;           ///< attempts after the first (<0 = daemon default)
  double mem_mb = 0.0;         ///< reservation hint for the cross-job governor (0 = estimate)

  JobSpec();

  /// Parses "key=value ..." text: the option table's spec keys, plus the
  /// design and scheduling keys above. Unknown keys, malformed values and
  /// out-of-range values (nan, a sign on an unsigned value, threshold
  /// outside (0,1], ...) are rejected with a message in `error`.
  static bool parse(const std::string& text, JobSpec* spec,
                    std::string* error);

  /// Canonical serialization; parse(to_text()) round-trips bit-exactly
  /// (doubles travel as hexfloats).
  std::string to_text() const;

  /// The options a runner executes: `options` with the scheduling knobs
  /// folded in (journal path/resume are filled by the daemon).
  VerifierOptions to_options() const;

  bool has_design_ref() const { return design_nets != 0; }

  /// The chipgen parameters the design reference names; 0-valued
  /// rows/seed keep the generator defaults, so `nets=N` alone names the
  /// chip a daemon booted with `--nets N` serves.
  DspChipOptions chip_options() const;
  /// Points the design reference at `chip`: nets always, rows only when
  /// > 1, and the seed only when it is not chipgen's default (a chip seed
  /// of 0 cannot travel: chip_seed=0 means the default).
  void set_chip_options(const DspChipOptions& chip);

  /// The hash verify() stamps into this job's journal header:
  /// options_result_hash(to_options()). Design fields never enter it.
  std::uint64_t options_hash() const;

  /// Job identity: options_hash() with the design reference folded in.
  /// Equal to options_hash() (and thus the journal header) when the job
  /// targets the resident design.
  std::uint64_t key() const;
};

/// Parses a design file ("xtvds nets=N [rows=R] [seed=S]") into design
/// reference fields. Unreadable or malformed files fail with a message.
bool load_design_ref_file(const std::string& path, std::size_t* nets,
                          std::size_t* rows, std::uint64_t* seed,
                          std::string* error);

/// 16-hex rendering of a job key and its inverse.
std::string job_key_hex(std::uint64_t key);
bool parse_job_key(const std::string& hex, std::uint64_t* key);

/// On-disk locations of a job's state files.
struct JobPaths {
  std::string spec;
  std::string journal;
  std::string done;
  std::string pid;
};
JobPaths job_paths(const std::string& jobs_dir, std::uint64_t key);

/// %XX-escapes free-form text (crash reasons, summaries) into a single
/// space-free token for wire payloads; empty encodes as "-". The codec is
/// the journal's (core/journal.h).
inline std::string serve_escape(const std::string& s) {
  return escape_token(s);
}
inline bool serve_unescape(const std::string& s, std::string* out) {
  return unescape_token(s, out);
}

/// Atomically (tmp + fsync + rename) persists a spec file:
///   xtvss <key> <attempts>\n<canonical spec text>\n
/// Written at admission (so queued jobs survive a daemon crash) and
/// rewritten before each launch (so the retry ladder survives one too).
bool write_spec_file(const std::string& path, const JobSpec& spec,
                     std::size_t attempts, std::string* error);
bool load_spec_file(const std::string& path, JobSpec* spec,
                    std::size_t* attempts, std::string* error);

/// Atomically persists the terminal marker:
///   xtvsd <key> <done|conceded> <escaped summary>\n
/// Written by the runner on clean completion (so an orphaned runner can
/// still finish its job durably) and by the daemon on concession.
bool write_done_file(const std::string& path, std::uint64_t key,
                     JobState terminal, const std::string& summary,
                     std::string* error);
bool load_done_file(const std::string& path, std::uint64_t* key,
                    JobState* terminal, std::string* summary);

}  // namespace serve
}  // namespace xtv
