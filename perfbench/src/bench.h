// Shared types of the xtv benchmark (perfbench/README.md). The benchmark
// drives the library from outside, through its public entry points only:
// design generation, ChipVerifier::verify, a VictimPipeline built exactly
// as verify() builds it, GlitchAnalyzer, and the serve daemon/client.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cells/cell_library.h"
#include "cells/characterize.h"
#include "chipgen/dsp_chip.h"
#include "core/journal.h"
#include "core/verifier.h"
#include "extract/extractor.h"
#include "metrics.h"
#include "serve/job.h"
#include "util/workspace.h"

namespace perfbench {

/// One benchmark workload (see the table in perfbench/README.md).
struct Workload {
  std::string name;
  std::size_t designs = 0;   ///< designs per run
  std::size_t nets = 0;      ///< nets per design
  std::size_t threads = 1;   ///< verify() worker threads
  std::size_t copies = 1;    ///< concurrent single-process audit copies
};

/// Ordered name -> (value, unit) map printed as the result's "metrics".
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The library objects one characterized cell set needs. Held by pointer:
/// the extractor and characterized library keep references.
struct Libs {
  xtv::CellLibrary library;
  xtv::CharacterizedLibrary chars;
  xtv::Extractor extractor;
  Libs() : library(), chars(library), extractor(library.tech()) {}
  Libs(const Libs&) = delete;
  Libs& operator=(const Libs&) = delete;

  /// Masters whose model is not cached yet (a nonzero count during a
  /// timed region means characterization leaked into it).
  std::size_t missing_models() const;
};

/// Set-up of one run: cell-cache load plus design generation.
struct Setup {
  std::unique_ptr<Libs> libs;
  xtv::ChipDesign design;
  std::size_t models_loaded = 0;
  double load_s = 0.0;      ///< library construction + cell-cache load
  double generate_s = 0.0;  ///< generate_dsp_chip
  double total_s = 0.0;
};

Setup make_setup(const std::string& cell_cache,
                 const xtv::DspChipOptions& chip);

/// Characterizes every library master into `cell_cache` (untimed, once
/// per cache file). Returns the seconds spent characterizing (0 when the
/// cache was already complete).
double warm_cell_cache(const std::string& cell_cache);

/// Chip and analysis options of one design of a run.
struct DesignJob {
  xtv::DspChipOptions chip;
  xtv::VerifierOptions options;
};

/// Design `k` of a run. Design 0 is a fixed reference design (chipgen's
/// default seed) whatever the run seed: the accuracy pass samples it, so
/// peak_err_pct_* compare like with like across seeds. The others are
/// drawn from `seed`. Options are chip_audit's flag-free ones (threshold
/// 0.10, alignment on, tstop 4 ns, 64 MiB exact model cache) at the
/// workload's thread count.
DesignJob design_job(const Workload& w, std::uint64_t seed, std::size_t k);

using Records = std::map<std::size_t, xtv::JournalRecord>;

/// One untraced ChipVerifier::verify() call.
struct VerifyRun {
  xtv::VerificationReport report;
  Records records;           ///< every settled eligible victim, by net
  std::uint64_t digest = 0;  ///< findings_digest(records)
  double wall_s = 0.0;
  double cpu_s = 0.0;        ///< process user+sys over the call
  xtv::workspace::Stats workspace;  ///< delta over the call
  std::size_t fresh_models = 0;     ///< cells characterized during the call
  std::size_t clean = 0;     ///< victims ending kAnalyzed / kCertified
};

VerifyRun run_verify(Libs& libs, const xtv::ChipDesign& design,
                     const xtv::VerifierOptions& options);

/// Report counters reconcile: eligible == analyzed + screened + fallback
/// + failed, and one record per eligible victim.
bool report_reconciles(const VerifyRun& run);

/// Untimed accuracy pass: a seeded sample of the run's victims is rebuilt
/// with build_victim_cluster and re-simulated on the transistor-level
/// golden engine (analyze_spice, kTransistor); errors are kept for
/// victims whose golden peak exceeds 10% Vdd.
struct Accuracy {
  std::vector<double> err_pct;  ///< |flow peak - golden| / |golden| * 100
  std::size_t golden_runs = 0;
  double golden_s = 0.0;        ///< wall seconds in analyze_spice
};

Accuracy accuracy_pass(Libs& libs, const xtv::ChipDesign& design,
                       const xtv::VerifierOptions& options,
                       const Records& records, std::uint64_t sample_seed);

/// Spans and counters of the traced run, accumulated over designs.
struct TraceLedger {
  std::vector<Span> spans;
  std::vector<int> span_stage;  ///< PipelineStage index per span (-1 = victim)
  double summaries_s = 0.0;     ///< chip_net_summaries
  double prune_s = 0.0;         ///< prune_couplings
  std::size_t candidates = 0;   ///< victims with >= 1 retained coupling
  std::size_t retained = 0;     ///< retained couplings over candidates
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
  double prepare_aligned_s = 0.0;    ///< GlitchAnalyzer::prepare, alignment on
  double prepare_unaligned_s = 0.0;  ///< the same clusters, alignment off
  std::size_t probes = 0;            ///< solo alignment probe runs
};

/// Traced run of the layers below verify() on one design: replays its
/// candidates through a VictimPipeline built exactly as verify() builds
/// it, at the options' thread count, with a victim span around run() and
/// a stage span from each stage_trace callback to the next (or to run()'s
/// return). `untraced` is a verify() of the same design and options; the
/// replay's digest must equal its digest. With `split_alignment`, also
/// times GlitchAnalyzer::prepare with alignment on and off on the same
/// clusters.
bool trace_design(Libs& libs, const xtv::ChipDesign& design,
                  const xtv::VerifierOptions& options, const VerifyRun& untraced,
                  bool split_alignment, TraceLedger* ledger, std::string* error);

/// stage.*, victim_ms_*, prune.*, glitch.* and trace.* metrics.
void trace_metrics(const TraceLedger& ledger, Metrics* out);

/// Per-layer counters summed over untraced verify() runs (cache,
/// certificate, reduced orders, batching, thread-pool and workspace
/// accounting).
void report_layers(const std::vector<VerifyRun>& runs, std::size_t threads,
                   Metrics* out);

/// One forked ServeDaemon lifetime driven closed-loop.
struct ServeJob {
  Records findings;
  std::size_t duplicates = 0;
  xtv::serve::JobState state = xtv::serve::JobState::kQueued;
  bool rejected = false;
  std::string error;
};

struct ServeRound {
  std::vector<ClosedLoopLedger::Job> ledger;
  std::vector<ServeJob> jobs;
  double makespan_s = 0.0;
  double daemon_start_s = 0.0;  ///< fork until the socket accepts
  double children_cpu_s = 0.0;  ///< reaped daemon + runner CPU
  double daemon_rss_mib = 0.0;  ///< daemon peak RSS just before the drain
  std::size_t peak_outstanding = 0;
  bool drained = false;
  std::string error;
};

ServeRound run_serve_round(const std::string& work_dir,
                           const std::string& cell_cache,
                           const std::vector<xtv::serve::JobSpec>& specs,
                           std::size_t clients, std::size_t max_running);

/// Spec of a served job reproducing `options` on `chip`.
xtv::serve::JobSpec job_spec(const xtv::VerifierOptions& options,
                             const xtv::DspChipOptions& chip);

/// Victims of `design` that retain >= 1 aggressor after window and
/// correlation filtering — exactly the set a run must settle.
std::vector<std::size_t> eligible_victims(Libs& libs,
                                          const xtv::ChipDesign& design,
                                          const xtv::VerifierOptions& options);

/// Client-side frame intervals per job: a job span (submit to terminal)
/// with admit, first_finding, stream and finalize children.
std::vector<Span> serve_spans(const ServeRound& round);

/// Writes spans as TSV (id, parent, name, victim, start_s, end_s, cpu_s;
/// times relative to the first span).
void write_spans(const std::string& path, const std::vector<Span>& spans);

/// Frame-interval metrics of a serve round (serve.* in README.md).
void serve_layers(const ServeRound& round, Metrics* out);

/// Host speed right now, as the calling code sees it. On the shared VMs
/// the benchmark runs on, the same code runs at different speeds from one
/// second to the next and over minutes. `threads` concurrent threads, the
/// calling one among them, each time a fixed, L1-resident kernel that is
/// not program code a few times, in thread CPU time (so preemption does
/// not count). Returns the kernel's reference time over the mean of the
/// threads' median times, capped at 1: 1 on a host as fast as the
/// reference, 0.8 when the kernel ran 25% slower. Multiplying a time
/// measured around the probes by it gives reference-host seconds. Taken
/// just before and after a timed call, in as many threads as the call
/// runs, it follows the speed of the vCPUs the call ran on.
double probe_speed(std::size_t threads);

/// Process user+sys CPU seconds (RUSAGE_SELF, or RUSAGE_CHILDREN).
double process_cpu_s(bool children = false);
/// Peak resident set (VmHWM) of a live process, "self" by default (MiB).
double peak_rss_mib(const std::string& pid = "self");
double now_s();

inline bool clean_status(xtv::FindingStatus s) {
  return s == xtv::FindingStatus::kAnalyzed ||
         s == xtv::FindingStatus::kCertified;
}

}  // namespace perfbench
