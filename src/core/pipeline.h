// Staged per-victim verification pipeline (DESIGN.md §11).
//
// One victim's journey through the verifier is an explicit state machine:
//
//   BuildCluster -> NoiseScreen -> Reduce -> SimulateReduced -> Certify
//        ^                                                        |
//        +--------------- (escalation / retry rungs) -------------+
//        |                                                        |
//     FullSim (rung 3)                                      Audit / Bound
//
// The retry/degradation ladder and the certification escalation loop are
// *stage transitions*, not nested branches: a failed attempt routes back
// to BuildCluster with the next rung's options (halved timestep, doubled
// Krylov order), then to FullSim, and finally to the Devgan Bound stage,
// which cannot fail. Every victim leaves the machine through Audit (an
// accepted simulation result) or Bound (a conservative analytic one), so
// no victim is ever silently dropped — the same accounting contract the
// monolithic analyze_victim() upheld, now with one stage per concern.
//
// Semantics are a faithful port of the pre-staged verifier: rung option
// derivation, first-error retention, deadline/resource short-circuits,
// certification verdicts and upward escalation, the audit lottery, the
// delay pass, and the pessimistic kFailed envelope are bit-compatible.
// Parallel, cached, resumed, and serial runs produce identical findings.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "core/glitch_analyzer.h"
#include "core/journal.h"
#include "core/pruning.h"
#include "core/verifier.h"
#include "mor/model_cache.h"
#include "util/deadline.h"
#include "util/resource.h"

namespace xtv {

/// Stages a victim can occupy. kBuildCluster is re-entered once per
/// analysis attempt (each rung re-runs alignment and extraction under its
/// own options); kFullSim is the golden-engine fallback rung; kBound is
/// the terminal conservative rung that cannot fail.
enum class PipelineStage {
  kBuildCluster = 0,  ///< victim/aggressor specs, alignment, extraction
  kNoiseScreen,       ///< Devgan pre-screen (skip simulation when safe)
  kReduce,            ///< SyMPVL + certificate + eigen (cache-aware)
  kSimulateReduced,   ///< reduced transient, peak/EM measurement
  kFullSim,           ///< full unreduced golden simulation (ladder rung 3)
  kCertify,           ///< certificate verdict + upward order escalation
  kAudit,             ///< result finalization, SPICE lottery, delay pass
  kBound,             ///< conservative Devgan bound (terminal fallback)
  kDone,
};

const char* pipeline_stage_name(PipelineStage s);

/// Keeps the FIRST failure a cluster exhibited: later ladder rungs may
/// fail differently, but the root cause is what the report should show.
void record_first_error(VictimFinding& finding, const std::exception& e);

/// The pessimistic envelope of a victim with no trustworthy result:
/// `status`, a full-rail glitch (peak = -Vdd on the held-high victim) and
/// a violation. The error fields are the caller's.
void mark_pessimistic(VictimFinding& finding, FindingStatus status,
                      double vdd);

/// Everything a VictimPipeline needs to analyze victims. All pointers are
/// non-owning and must outlive the pipeline; the referenced objects are
/// either const, internally synchronized (CharacterizedLibrary,
/// ModelCache), or only touched through thread-safe entry points, so one
/// context may be shared by every worker thread.
struct PipelineContext {
  const ChipVerifier* verifier = nullptr;
  const Extractor* extractor = nullptr;
  CharacterizedLibrary* chars = nullptr;
  GlitchAnalyzer* analyzer = nullptr;
  const ChipDesign* design = nullptr;
  const std::vector<NetSummary>* summaries = nullptr;
  const PruneResult* pruned = nullptr;
  const VerifierOptions* options = nullptr;
  /// Shared reduced-model cache (null = reuse disabled).
  ModelCache* model_cache = nullptr;
  /// Optional stage-entry hook (tests/benches observe transitions). Runs
  /// on the worker thread; must be thread-safe and must not throw.
  std::function<void(std::size_t victim, PipelineStage stage)> stage_trace;
};

/// Drives one victim at a time through the stages. Stateless between
/// run() calls — safe to share across worker threads.
class VictimPipeline {
 public:
  explicit VictimPipeline(PipelineContext ctx);

  /// Full analysis of one victim cluster under the context's options.
  /// `shed` marks a victim refused admission by the memory governor (it
  /// enters the machine already resource-exhausted and exits through
  /// kBound). Returns nullopt for ineligible victims (no retained
  /// aggressor survives the window/correlation filters).
  std::optional<JournalRecord> run(std::size_t victim_net, bool shed) const;

 private:
  struct RunState;

  void run_machine(RunState& s) const;
  PipelineStage step(RunState& s, PipelineStage stage) const;
  PipelineStage on_attempt_failure(RunState& s, const std::exception& e) const;

  PipelineStage stage_build_cluster(RunState& s) const;
  PipelineStage stage_noise_screen(RunState& s) const;
  PipelineStage stage_reduce(RunState& s) const;
  PipelineStage stage_simulate_reduced(RunState& s) const;
  PipelineStage stage_full_sim(RunState& s) const;
  PipelineStage stage_certify(RunState& s) const;
  PipelineStage stage_audit(RunState& s) const;
  PipelineStage stage_bound(RunState& s) const;

  PipelineContext ctx_;
};

}  // namespace xtv
