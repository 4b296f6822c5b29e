// Chip-level crosstalk verification flow — the end-to-end "tool" of the
// paper: prune the chip-level coupling database into clusters, build each
// victim's cluster with timing-window and logic-correlation filtering
// (plus the tri-state-bus strongest-driver rule applied upstream), analyze
// every cluster with the MOR engine, and report glitch violations against
// a noise-margin threshold.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chipgen/dsp_chip.h"
#include "core/glitch_analyzer.h"
#include "core/pruning.h"
#include "util/status.h"

namespace xtv {

struct JournalRecord;    // core/journal.h (which includes this header)
struct ShardCallbacks;   // core/shard_exec.h
struct ShardExecStats;   // core/shard_exec.h

/// Pluggable execution backend for the remote fan-out path (implemented
/// by serve/remote.h RemoteExecutor; core stays ignorant of sockets).
/// run() receives the un-journaled work list in stable net order plus the
/// same ShardCallbacks the process-shard supervisor gets, and must return
/// exactly one record per victim, keyed by net — the contract of
/// run_process_shards. A backend that loses every worker is expected to
/// finish the remainder locally through callbacks.analyze rather than
/// dropping victims.
class RemoteBackend {
 public:
  virtual ~RemoteBackend() = default;
  virtual std::map<std::size_t, JournalRecord> run(
      const std::vector<std::size_t>& work, const ShardCallbacks& callbacks,
      ShardExecStats* stats) = 0;
};

struct VerifierOptions {
  PruningOptions prune;
  GlitchAnalysisOptions glitch;
  /// Glitch threshold as a fraction of Vdd: peaks above it are violations
  /// (the paper reports bins at 10% and 20% of supply).
  double glitch_threshold = 0.10;
  /// Restrict analysis to latch-input victims (the Fig 6/7 victim set);
  /// false analyzes every net that retains aggressors.
  bool latch_inputs_only = false;
  /// Cap on analyzed victims (0 = no cap) for bounded runs.
  std::size_t max_victims = 0;
  /// Also run the timing-recalculation pass: coupled vs decoupled victim
  /// interconnect delay (the paper's Table-2-style signal-integrity timing
  /// audit), filling the delay fields of each finding.
  bool analyze_delay_change = false;
  /// Pre-screen clusters with the Devgan analytic noise bound (the
  /// paper's ref. [7]): when the summed conservative bounds fall below the
  /// glitch threshold, the cluster cannot violate and its MOR simulation
  /// is skipped. Safe (the bound is an upper bound) and fast.
  bool use_noise_screen = false;
  /// Electromigration audit limit on the victim driver's RMS current
  /// during the worst-case event (A); 0 disables the check. Findings whose
  /// RMS current exceeds it are flagged as EM violations.
  double em_rms_limit = 0.0;

  // --- Execution model: parallelism, deadlines, resume (DESIGN.md §8) ---

  /// Worker threads sharding the eligible victims (<= 1 = serial).
  /// Findings are merged in victim-net order, so a clean parallel run
  /// reproduces the serial report. max_victims > 0 forces serial
  /// execution: the cap is defined by serial analysis order.
  std::size_t threads = 1;
  /// Per-cluster wall-clock budget (ms; 0 = unlimited). A cluster that
  /// exhausts it mid-simulation is cancelled cooperatively and reported
  /// through the conservative Devgan bound as FindingStatus::kDeadlineBound
  /// instead of stalling its worker.
  double cluster_deadline_ms = 0.0;
  /// When non-empty, every completed eligible victim is appended to this
  /// crash-safe journal (see core/journal.h) so a killed run can resume.
  std::string journal_path;
  /// Resume from journal_path: victims with an intact journal record are
  /// merged from it without re-analysis (a torn tail from the crash is
  /// discarded); the rest run normally. Requires journal_path, and the
  /// journal's options-hash header must match the current options. In
  /// process mode, leftover shard journals of a killed supervisor are
  /// merged too.
  bool resume = false;

  // --- Process-isolated shard execution (DESIGN.md §12) ---

  /// Worker *processes* sharding the eligible victims (0 = in-process
  /// path, i.e. the `threads` pool above). Each worker is forked, runs
  /// its contiguous victim shard serially, streams findings back over a
  /// checksummed pipe, and writes its own crash-safe shard journal — a
  /// worker that dies on SIGSEGV/SIGKILL/abort loses nothing but its
  /// in-flight victim, which is quarantined and retried in a fresh
  /// process (see core/shard_exec.h). A clean multi-process run is
  /// bit-identical to the serial one. Like `threads`, this is a pure
  /// scheduling knob and is NOT part of options_result_hash;
  /// max_victims > 0 forces the in-process serial path.
  std::size_t processes = 0;
  /// Worker heartbeat period (ms). A worker silent for 10x this long is
  /// presumed wedged, SIGKILLed, and handled as a crash (0 = stall
  /// monitoring off; process death is still detected via pipe EOF).
  double shard_heartbeat_ms = 250.0;
  /// Crash budget per shard: after this many worker restarts a shard's
  /// remaining victims are conceded to the conservative bound
  /// (FindingStatus::kShardCrashed) instead of respawning forever.
  std::size_t max_shard_restarts = 2;

  // --- Remote fan-out (DESIGN.md §14; scheduling-only, NOT hashed) ---

  /// When set (and max_victims == 0), eligible un-journaled victims are
  /// executed by this backend — leased work units on remote xtv_worker
  /// hosts — instead of local threads or forked processes; `processes`
  /// is ignored for the sweep itself. Non-owning: the backend must
  /// outlive verify(). Like threads/processes this is a pure scheduling
  /// knob: a clean remote run's merged journal is bit-identical to the
  /// serial one, and every remote failure mode degrades to an explicit
  /// FindingStatus, never a lost victim.
  RemoteBackend* remote_backend = nullptr;

  // --- Streaming hooks (scheduling-only; NOT in options_result_hash) ---

  /// Invoked once per settled eligible victim, with the record exactly as
  /// it is journaled/merged (after any concession stamping). In process
  /// mode it runs serialized on the supervisor side; on the in-process
  /// path it runs on whichever worker thread finished the victim, so it
  /// must be thread-safe when threads > 1. Exceptions are swallowed — a
  /// broken listener must never fail the run. The serve daemon
  /// (src/serve) uses this to stream findings as they certify.
  std::function<void(const JournalRecord&)> on_record;
  /// Liveness tick from the process-mode supervisor's poll loop (~50 ms
  /// cadence while shard workers are live; never fires on the in-process
  /// path). Rate-limit in the callback.
  std::function<void()> on_tick;

  // --- Resource governance: memory budgets and shedding (DESIGN.md §9) ---

  /// Reduced-model cache budget (MiB; 0 = cache off). When set, every
  /// victim's assembled (G, C, B) pencil is fingerprinted and the
  /// certified reduced model of a repeated cluster is reused instead of
  /// re-running SyMPVL, certification, and the eigendecomposition. A hit
  /// is bit-identical to the fresh computation (mor/model_cache.h), so
  /// findings never change — but which *fault-injection sites* execute
  /// does, which is why the library default is off and chip_audit turns
  /// it on. Result-affecting under memory budgets (a hit skips the
  /// Krylov charges), hence part of options_result_hash.
  double model_cache_mb = 0.0;

  /// Canonical (permutation/tolerance-invariant) model-cache keys
  /// (DESIGN.md §16): when an exact fingerprint lookup misses, a
  /// tolerant canonical hit may stand in for a fresh reduction — but
  /// only after its model re-passes the a-posteriori certificate
  /// against the requesting cluster's exact (G, C, B) at cert_rel_tol;
  /// a failed certificate counts as a miss (canonical_cert_rejects).
  /// Result-affecting (a certified tolerant reuse is equivalent within
  /// the certificate tolerance, not bit-identical), hence hashed. Off
  /// by default: exact keying remains the only bit-identical mode.
  bool canonical_cache = false;
  /// Relative quantization tolerance of the canonical key (values
  /// within it usually collide; see canonical_cluster_fingerprint).
  double canonical_cache_tol = 1e-6;

  /// Per-cluster memory budget (MiB; 0 = unlimited) covering dense
  /// matrices, Krylov blocks, and waveform storage of one victim's
  /// analysis. A cluster that breaches it degrades to the conservative
  /// Devgan bound (FindingStatus::kResourceBound) instead of OOMing.
  double cluster_mem_mb = 0.0;
  /// Process-wide soft RSS limit (MiB; 0 = watchdog off). While resident
  /// set stays above it, admission control sheds the largest queued
  /// clusters to their Devgan bound instead of letting the kernel's OOM
  /// killer end the run.
  double global_mem_soft_mb = 0.0;

  // --- Certified accuracy (DESIGN.md §10) ---

  /// Certify every reduced model a-posteriori against the exact cluster
  /// transfer function; a failed certificate climbs the UPWARD escalation
  /// ladder (raised Krylov order) before conceding to the conservative
  /// bound as FindingStatus::kAccuracyBound.
  bool certify = false;
  /// Max relative transfer-function error a passing certificate may carry.
  double cert_rel_tol = 0.02;
  /// Sample frequencies per certificate (cost: one sparse LU solve each).
  std::size_t cert_freqs = 5;
  /// Ceiling on the Krylov order the escalation ladder may request.
  std::size_t max_mor_order = 64;
  /// Order increment per escalation step (q -> q + step, capped above).
  std::size_t mor_order_step = 4;

  // --- Sampled SPICE cross-audit of certified results ---

  /// Fraction of MOR-analyzed victims re-simulated on the golden SPICE
  /// path and diffed against the reduced result (0 = off, 1 = all).
  /// Selection is a pure hash of (victim net, audit_seed), so a parallel
  /// run audits exactly the victims a serial run would.
  double audit_fraction = 0.0;
  /// Seed of the victim-keyed audit lottery.
  std::uint64_t audit_seed = 0xA0D17u;
  /// Peak-glitch agreement tolerance, as a fraction of Vdd.
  double audit_peak_tol_frac = 0.02;
  /// Time-of-peak agreement tolerance (s).
  double audit_time_tol = 5e-11;
};

/// FNV-1a hash over the result-affecting fields of `options` (pruning,
/// analysis, thresholds, budgets — NOT threads/journal_path/resume, which
/// change scheduling but never a finding). Stamped into the journal
/// header; resume refuses a journal written under a different hash.
std::uint64_t options_result_hash(const VerifierOptions& options);

/// How a victim's reported numbers were obtained. Production runs must
/// account for every victim: a cluster whose reduced-model analysis breaks
/// down numerically is retried and degraded through cheaper/safer engines
/// rather than silently dropped (see ChipVerifier::verify).
enum class FindingStatus {
  kAnalyzed = 0,        ///< clean reduced-model (MOR) analysis
  kAnalyzedAfterRetry,  ///< MOR succeeded after a timestep/order retry
  kFellBackToFullSim,   ///< full unreduced-cluster (golden SPICE) simulation
  kFellBackToBound,     ///< conservative Devgan analytic bound (peak >= true)
  kDeadlineBound,       ///< cluster wall-clock budget expired; Devgan bound
  kResourceBound,       ///< memory budget breached or shed; Devgan bound
  kFailed,              ///< every rung failed; peak pessimistically = Vdd
  // Appended after kFailed so serialized journal values stay stable.
  kCertified,           ///< MOR analysis with a PASSING accuracy certificate
  kAccuracyBound,       ///< certificate never passed (even escalated); Devgan bound
  kShardCrashed,        ///< worker process died on this victim twice; Devgan bound
};

inline const char* finding_status_name(FindingStatus s) {
  switch (s) {
    case FindingStatus::kAnalyzed: return "analyzed";
    case FindingStatus::kAnalyzedAfterRetry: return "analyzed-after-retry";
    case FindingStatus::kFellBackToFullSim: return "full-sim-fallback";
    case FindingStatus::kFellBackToBound: return "bound-fallback";
    case FindingStatus::kDeadlineBound: return "deadline-bound";
    case FindingStatus::kResourceBound: return "resource-bound";
    case FindingStatus::kFailed: return "failed";
    case FindingStatus::kCertified: return "certified";
    case FindingStatus::kAccuracyBound: return "accuracy-bound";
    case FindingStatus::kShardCrashed: return "shard-crashed";
  }
  return "unknown";
}

/// Severity ranking for CI gating (chip_audit --fail-on): 0 is the best
/// outcome; larger is worse. "--fail-on X" trips on any finding at least
/// as severe as X.
inline int finding_status_severity(FindingStatus s) {
  switch (s) {
    case FindingStatus::kCertified: return 0;
    case FindingStatus::kAnalyzed: return 1;
    case FindingStatus::kAnalyzedAfterRetry: return 2;
    case FindingStatus::kFellBackToFullSim: return 3;
    case FindingStatus::kFellBackToBound: return 4;
    case FindingStatus::kDeadlineBound: return 5;
    case FindingStatus::kResourceBound: return 6;
    case FindingStatus::kAccuracyBound: return 7;
    case FindingStatus::kShardCrashed: return 8;
    case FindingStatus::kFailed: return 9;
  }
  return 9;
}

/// Parses a FindingStatus from either its report name ("accuracy-bound")
/// or its enumerator name ("kAccuracyBound"). Returns false on no match.
bool parse_finding_status(const std::string& name, FindingStatus* out);

struct VictimFinding {
  std::size_t net = 0;
  double peak = 0.0;               ///< signed glitch peak (V)
  double peak_fraction = 0.0;      ///< |peak| / Vdd
  bool violation = false;
  FindingStatus status = FindingStatus::kAnalyzed;
  std::size_t retries = 0;            ///< failed analysis attempts before this result
  StatusCode error_code = StatusCode::kOk;  ///< first failure class seen
  std::string error;                  ///< first failure message (empty when clean)
  std::size_t aggressors_analyzed = 0;
  std::size_t aggressors_dropped_by_correlation = 0;
  std::size_t aggressors_dropped_by_window = 0;
  /// Compute time this victim consumed on its worker thread (all ladder
  /// rungs, screening, and the delay pass included) — summable across
  /// workers, unlike the report's wall_seconds.
  double cpu_seconds = 0.0;
  std::size_t reduced_order = 0;

  /// Timing recalculation (filled when VerifierOptions::analyze_delay_change
  /// is set): victim rise delay without and with worst-case coupling.
  double delay_decoupled = 0.0;
  double delay_coupled = 0.0;

  /// Electromigration audit (nonlinear driver model runs).
  double driver_rms_current = 0.0;  ///< A
  bool em_violation = false;        ///< RMS current above the configured limit

  /// Certified accuracy (filled when VerifierOptions::certify is set and
  /// the result came from the MOR path).
  bool certified = false;           ///< accuracy certificate passed
  double cert_max_rel_err = 0.0;    ///< worst sampled transfer-fn rel. error
  std::size_t cert_order_escalations = 0;  ///< upward order raises taken

  /// Sampled SPICE cross-audit (when this victim won the audit lottery and
  /// the golden re-simulation completed).
  bool audited = false;
  bool audit_pass = false;          ///< within peak and time-of-peak tolerance
  double audit_peak_err = 0.0;      ///< |MOR peak - SPICE peak| (V)
  double audit_time_err = 0.0;      ///< |MOR t_peak - SPICE t_peak| (s)
};

struct VerificationReport {
  PruneStats prune_stats;
  std::vector<VictimFinding> findings;
  /// Victims that entered analysis (>= 1 retained aggressor after window /
  /// correlation filtering). Always equals victims_analyzed +
  /// victims_screened_out + victims_fallback + victims_failed — every
  /// victim is reported exactly once, never silently skipped.
  std::size_t victims_eligible = 0;
  std::size_t victims_analyzed = 0;      ///< MOR analysis succeeded (incl. retries)
  std::size_t victims_screened_out = 0;  ///< skipped by the Devgan bound
  std::size_t victims_retried = 0;       ///< needed >= 1 recovery-ladder step
  std::size_t victims_fallback = 0;      ///< full-sim or analytic-bound result
  std::size_t victims_failed = 0;        ///< every ladder rung failed
  std::size_t victims_deadline_bound = 0;  ///< budget expired (subset of fallback)
  std::size_t victims_resource_bound = 0;  ///< memory budget/shed (subset of fallback)
  /// Process-shard accounting (processes > 0 runs).
  std::size_t victims_shard_crashed = 0;  ///< conceded after repeated worker death (subset of fallback)
  std::size_t victims_quarantined = 0;    ///< isolated for a fresh-process retry
  std::size_t worker_crashes = 0;         ///< worker deaths (signal, exit, stall, wire corruption)
  std::size_t shard_restarts = 0;         ///< shard worker respawns after a crash
  /// Certified-accuracy accounting (certify runs).
  std::size_t victims_certified = 0;       ///< passing certificate (subset of analyzed)
  std::size_t victims_accuracy_bound = 0;  ///< certificate never passed (subset of fallback)
  std::size_t victims_escalated = 0;       ///< needed >= 1 upward order raise
  std::size_t order_escalations = 0;       ///< total order raises across victims
  /// SPICE cross-audit accounting (audit_fraction > 0 runs).
  std::size_t victims_audited = 0;
  std::size_t audit_failures = 0;          ///< audited victims out of tolerance
  double audit_max_peak_err = 0.0;         ///< worst |MOR - SPICE| peak (V)
  double audit_max_time_err = 0.0;         ///< worst time-of-peak delta (s)
  std::size_t violations = 0;
  /// Reduced-model cache accounting (model_cache_mb > 0 runs).
  std::size_t model_cache_hits = 0;
  std::size_t model_cache_misses = 0;
  std::size_t model_cache_insertions = 0;
  std::size_t model_cache_evictions = 0;
  std::size_t model_cache_entries = 0;  ///< live entries at end of run
  std::size_t model_cache_bytes = 0;    ///< live payload bytes at end of run
  /// Canonical-cache accounting (canonical_cache runs).
  std::size_t canonical_hits = 0;          ///< certified tolerant reuses
  std::size_t canonical_cert_rejects = 0;  ///< tolerant hits failing re-cert
  /// Retired lockstep-batching counters: always 0 (every victim runs the
  /// one ReducedSimulator). Kept only because the repository benchmark
  /// reads them; they go with its next change.
  std::size_t batched_victims = 0;
  std::size_t batch_lane_fallbacks = 0;
  /// Summed per-victim compute time across all workers. Under N threads
  /// this exceeds wall_seconds by up to a factor of N; the ratio is the
  /// realized parallel efficiency.
  double total_cpu_seconds = 0.0;
  /// End-to-end wall time of the verify() call (pruning included).
  double wall_seconds = 0.0;

  std::string to_string() const;
};

class ChipVerifier {
 public:
  ChipVerifier(const Extractor& extractor, CharacterizedLibrary& chars);

  /// The per-run analysis engine, extracted from verify() so any
  /// execution model — the in-process pool, forked shard workers, or a
  /// remote xtv_worker that rebuilt the design from a job spec — drives
  /// the identical per-victim semantics. See the definition below.
  class Prepared;

  VerificationReport verify(const ChipDesign& design,
                            const VerifierOptions& options);

  /// Builds the analyzable cluster (victim + filtered aggressor specs) for
  /// one victim net: applies the retained-coupling list, timing-window
  /// overlap, and logic-correlation vetoes. Exposed for the figure
  /// benches, which need per-cluster control.
  std::pair<VictimSpec, std::vector<AggressorSpec>> build_victim_cluster(
      const ChipDesign& design, const std::vector<NetSummary>& summaries,
      const PruneResult& pruned, std::size_t victim_net,
      VictimFinding* accounting = nullptr) const;

 private:
  const Extractor& extractor_;
  CharacterizedLibrary& chars_;
};

/// Everything one verification run needs to analyze victims: summaries,
/// pruned coupling database, analyzer, model cache, and the staged
/// pipeline, built once from (design, options). analyze() reproduces the
/// exact worker-task semantics of verify() — victim-keyed fault
/// injection, the kVictimTask site, pressure shedding, and the
/// pessimistic kFailed envelope — so results are bit-identical no matter
/// which execution model calls it. `design` and `options` are captured by
/// reference and must outlive the Prepared.
class ChipVerifier::Prepared {
 public:
  Prepared(ChipVerifier& verifier, const ChipDesign& design,
           const VerifierOptions& options);
  ~Prepared();
  Prepared(const Prepared&) = delete;
  Prepared& operator=(const Prepared&) = delete;

  /// Candidate victims (>= 1 retained coupling, latch filter applied) in
  /// stable net order — the report and journal order.
  const std::vector<std::size_t>& candidates() const;

  const PruneResult& prune_result() const;

  /// Retained-cluster size: the dominant memory axis, used as the
  /// shedding key under RSS pressure.
  std::size_t footprint(std::size_t victim) const;

  /// Recomputes the pressure-shed threshold as the median footprint of
  /// `work` (verify() passes its un-journaled work list; a remote worker
  /// passes the full candidate list). Until called, the threshold is the
  /// median over candidates().
  void set_shed_work(const std::vector<std::size_t>& work);

  double vdd() const;

  /// Analyzes one victim. `bound_only` routes straight to the terminal
  /// conservative Devgan bound (the concession rung). Returns nullopt for
  /// ineligible victims (no retained aggressor survives the filters);
  /// never throws — any escaping failure becomes a kFailed record with
  /// peak pessimistically at Vdd.
  std::optional<JournalRecord> analyze(std::size_t victim, bool bound_only);

  /// The last-resort pessimistic record (peak = Vdd, kShardCrashed /
  /// kWorkerCrashed) for a victim whose concession analysis itself died.
  /// Pure struct assembly — cannot fail.
  JournalRecord concede(std::size_t victim, const std::string& why) const;

  /// Copies the model-cache counters into the report (no-op when the
  /// cache is off).
  void fill_cache_stats(VerificationReport* report) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace xtv
