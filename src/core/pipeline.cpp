#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "core/analytic_estimates.h"
#include "core/delay_analyzer.h"
#include "util/deadline.h"
#include "util/resource.h"
#include "util/timer.h"

namespace xtv {

namespace {

bool is_deadline_error(const std::exception& e) {
  const auto* numerical = dynamic_cast<const NumericalError*>(&e);
  return numerical && numerical->code() == StatusCode::kDeadlineExceeded;
}

bool is_resource_error(const std::exception& e) {
  const auto* numerical = dynamic_cast<const NumericalError*>(&e);
  return numerical && numerical->code() == StatusCode::kResourceExceeded;
}

/// splitmix64 finalizer — the audit lottery must be a pure function of
/// (victim, seed) so a parallel run audits exactly what a serial run would.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool audit_selected(std::size_t v, const VerifierOptions& options) {
  if (options.audit_fraction <= 0.0) return false;
  if (options.audit_fraction >= 1.0) return true;
  const std::uint64_t h =
      mix64(static_cast<std::uint64_t>(v) ^ mix64(options.audit_seed));
  // Top 53 bits -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53 < options.audit_fraction;
}

/// Time of the waveform's largest deviation from its initial value — the
/// quantity the audit compares across engines (glitch peak arrival).
double wave_peak_time(const Waveform& w) {
  double best = -1.0, t_peak = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double dev = std::fabs(w.value(i) - w.first_value());
    if (dev > best) {
      best = dev;
      t_peak = w.time(i);
    }
  }
  return t_peak;
}

}  // namespace

const char* pipeline_stage_name(PipelineStage s) {
  switch (s) {
    case PipelineStage::kBuildCluster: return "build-cluster";
    case PipelineStage::kNoiseScreen: return "noise-screen";
    case PipelineStage::kReduce: return "reduce";
    case PipelineStage::kSimulateReduced: return "simulate-reduced";
    case PipelineStage::kFullSim: return "full-sim";
    case PipelineStage::kCertify: return "certify";
    case PipelineStage::kAudit: return "audit";
    case PipelineStage::kBound: return "bound";
    case PipelineStage::kDone: return "done";
  }
  return "unknown";
}

void record_first_error(VictimFinding& finding, const std::exception& e) {
  if (!finding.error.empty()) return;
  finding.error = e.what();
  const auto* numerical = dynamic_cast<const NumericalError*>(&e);
  finding.error_code = numerical ? numerical->code() : StatusCode::kInternal;
}

/// Mutable per-run state shared by the stages. Lives on the worker's
/// stack for exactly one victim; the pipeline object itself stays const.
struct VictimPipeline::RunState {
  std::size_t v = 0;
  bool shed = false;
  double vdd = 0.0;
  const CancelToken* budget = nullptr;

  JournalRecord record;
  bool specs_built = false;
  bool ineligible = false;

  VictimSpec victim;
  std::vector<AggressorSpec> aggressors;

  /// Rung 0 options (cluster budget token + certification knobs applied).
  GlitchAnalysisOptions base;
  /// Options of the attempt currently in flight (rung or escalation).
  GlitchAnalysisOptions attempt;
  /// Options that produced the accepted MOR result — escalation raises
  /// order FROM these, and the audit replays them on the golden engine.
  GlitchAnalysisOptions mor_used;

  GlitchAnalyzer::PreparedCluster prepared;
  GlitchAnalyzer::ReducedOutcome reduced;
  GlitchResult res;

  int rung = 0;  ///< 0 = base, 1 = halved dt, 2 = + doubled order, 3 = full sim
  bool have_sim = false;
  bool deadline_expired = false;
  bool resource_exhausted = false;
  bool accuracy_failed = false;

  // Certification escalation loop bookkeeping.
  bool cert_entered = false;
  bool escalating = false;
  bool escalation_stopped = false;
  std::size_t q = 0;
};

VictimPipeline::VictimPipeline(PipelineContext ctx) : ctx_(std::move(ctx)) {}

std::optional<JournalRecord> VictimPipeline::run(std::size_t victim_net,
                                                 bool shed) const {
  const VerifierOptions& options = *ctx_.options;
  ThreadCpuTimer victim_timer;

  // Wall-clock and memory budgets for everything this victim does (dense
  // matrices, Krylov blocks, waveforms). A breach surfaces as the typed
  // kResourceExceeded inside an attempt stage.
  const CancelToken budget(options.cluster_deadline_ms > 0.0
                               ? Deadline::after_seconds(
                                     options.cluster_deadline_ms * 1e-3)
                               : Deadline::unlimited());
  resource::ClusterScope scope(
      options.cluster_mem_mb > 0.0
          ? static_cast<std::size_t>(options.cluster_mem_mb * 1024.0 * 1024.0)
          : 0);

  RunState s;
  s.v = victim_net;
  s.shed = shed;
  s.vdd = ctx_.extractor->tech().vdd;
  s.budget = &budget;
  VictimFinding& finding = s.record.finding;
  finding.net = victim_net;

  try {
    run_machine(s);
    if (s.ineligible) return std::nullopt;
  } catch (const std::exception& e) {
    // Per-cluster isolation: even a failure outside the ladder (cluster
    // construction, screening, the bound itself) must not abort the chip
    // sweep. The victim is reported maximally pessimistically for manual
    // review.
    record_first_error(finding, e);
    finding.status = FindingStatus::kFailed;
    finding.peak = -s.vdd;
    finding.peak_fraction = 1.0;
    finding.violation = true;
  }
  finding.cpu_seconds = victim_timer.elapsed();
  return std::move(s.record);
}

void VictimPipeline::run_machine(RunState& s) const {
  PipelineStage stage = PipelineStage::kBuildCluster;
  while (stage != PipelineStage::kDone) {
    if (ctx_.stage_trace) ctx_.stage_trace(s.v, stage);
    // Attempt stages are the ones the recovery ladder owns: a failure
    // there advances the rung (or the escalation loop) instead of
    // abandoning the victim. Everything else (spec build, screening,
    // the bound itself) escapes to the pessimistic kFailed envelope.
    const bool attempt_stage =
        (stage == PipelineStage::kBuildCluster && s.specs_built) ||
        stage == PipelineStage::kReduce ||
        stage == PipelineStage::kSimulateReduced ||
        stage == PipelineStage::kFullSim;
    try {
      stage = step(s, stage);
    } catch (const std::exception& e) {
      if (!attempt_stage) throw;
      stage = on_attempt_failure(s, e);
    }
    if (s.ineligible) return;
  }
}

PipelineStage VictimPipeline::step(RunState& s, PipelineStage stage) const {
  switch (stage) {
    case PipelineStage::kBuildCluster: return stage_build_cluster(s);
    case PipelineStage::kNoiseScreen: return stage_noise_screen(s);
    case PipelineStage::kReduce: return stage_reduce(s);
    case PipelineStage::kSimulateReduced: return stage_simulate_reduced(s);
    case PipelineStage::kFullSim: return stage_full_sim(s);
    case PipelineStage::kCertify: return stage_certify(s);
    case PipelineStage::kAudit: return stage_audit(s);
    case PipelineStage::kBound: return stage_bound(s);
    case PipelineStage::kDone: break;
  }
  return PipelineStage::kDone;
}

PipelineStage VictimPipeline::stage_build_cluster(RunState& s) const {
  if (!s.specs_built) {
    // First entry: victim/aggressor specs from the pruned database.
    auto cluster = ctx_.verifier->build_victim_cluster(
        *ctx_.design, *ctx_.summaries, *ctx_.pruned, s.v, &s.record.finding);
    s.victim = std::move(cluster.first);
    s.aggressors = std::move(cluster.second);
    s.specs_built = true;
    if (s.aggressors.empty()) {
      s.ineligible = true;
      return PipelineStage::kDone;
    }
    const VerifierOptions& options = *ctx_.options;
    s.base = options.glitch;
    s.base.cancel = s.budget;
    s.base.certify = options.certify;
    s.base.cert_rel_tol = options.cert_rel_tol;
    s.base.cert_freqs = options.cert_freqs;
    s.base.model_cache = ctx_.model_cache;
    s.base.canonical_cache = options.canonical_cache;
    s.base.canonical_cache_tol = options.canonical_cache_tol;
    s.attempt = s.base;
    s.mor_used = s.base;
    // A memory-budget breach, like an expired deadline, skips the
    // simulation rungs; a shed victim starts there — admission control
    // decided it must not be admitted to simulation at all.
    s.resource_exhausted = s.shed;
    if (s.shed) {
      s.record.finding.error = "shed under global memory pressure";
      s.record.finding.error_code = StatusCode::kResourceExceeded;
    }
    return PipelineStage::kNoiseScreen;
  }
  // Attempt entry (one per ladder rung / escalation step): worst-case
  // alignment and extraction under the attempt's own options — a changed
  // timestep changes the alignment probes, so this stage re-runs.
  s.prepared = ctx_.analyzer->prepare(s.victim, s.aggressors, s.attempt);
  return PipelineStage::kReduce;
}

PipelineStage VictimPipeline::stage_noise_screen(RunState& s) const {
  const VerifierOptions& options = *ctx_.options;
  if (options.use_noise_screen && !s.shed) {
    // Conservative pre-screen: the sum of per-aggressor Devgan bounds
    // caps the combined glitch; below the margin, skip the simulation.
    double bound = 0.0;
    for (const AggressorSpec& agg : s.aggressors)
      bound += devgan_noise_bound(s.victim, agg, *ctx_.extractor, *ctx_.chars);
    if (bound < options.glitch_threshold * s.vdd) {
      s.record.screened = true;
      return PipelineStage::kDone;
    }
  }
  return s.resource_exhausted ? PipelineStage::kBound
                              : PipelineStage::kBuildCluster;
}

PipelineStage VictimPipeline::stage_reduce(RunState& s) const {
  s.reduced = ctx_.analyzer->reduce(s.prepared, s.attempt);
  return PipelineStage::kSimulateReduced;
}

PipelineStage VictimPipeline::stage_simulate_reduced(RunState& s) const {
  GlitchResult got = ctx_.analyzer->simulate_reduced(
      s.victim, s.aggressors, s.prepared, s.reduced, s.attempt);
  if (s.escalating) {
    // Escalation step accepted: adopt the raised-order result. If the
    // Krylov basis stopped growing, raising the order again is a no-op —
    // the model is already as exact as this cluster permits.
    ++s.record.finding.cert_order_escalations;
    const bool grew = got.reduced_order > s.res.reduced_order;
    s.res = std::move(got);
    s.mor_used = s.attempt;
    if (!grew) s.escalation_stopped = true;
    return PipelineStage::kCertify;
  }
  s.res = std::move(got);
  s.have_sim = true;
  s.record.finding.status = s.rung == 0 ? FindingStatus::kAnalyzed
                                        : FindingStatus::kAnalyzedAfterRetry;
  s.mor_used = s.attempt;
  return PipelineStage::kCertify;
}

PipelineStage VictimPipeline::stage_full_sim(RunState& s) const {
  // Ladder rung 3: full unreduced-cluster simulation on the golden
  // engine — slow, but immune to every reduction-side breakdown.
  s.res = ctx_.analyzer->analyze_spice(s.victim, s.aggressors, s.base);
  s.have_sim = true;
  s.record.finding.status = FindingStatus::kFellBackToFullSim;
  return PipelineStage::kCertify;
}

PipelineStage VictimPipeline::on_attempt_failure(
    RunState& s, const std::exception& e) const {
  VictimFinding& finding = s.record.finding;
  record_first_error(finding, e);
  ++finding.retries;
  s.deadline_expired = is_deadline_error(e);
  s.resource_exhausted = is_resource_error(e);
  if (s.escalating) {
    // Escalation failures finalize the verdict with the last accepted
    // (uncertified) result; stage_certify routes to the proper bound.
    s.escalation_stopped = true;
    return PipelineStage::kCertify;
  }
  // A rung cancelled by the deadline skips straight to the bound — the
  // remaining rungs share the same expired budget and could only burn
  // more wall time failing. A memory breach likewise: every later rung
  // uses MORE memory (doubled order, full unreduced circuit).
  if (s.deadline_expired || s.resource_exhausted) return PipelineStage::kBound;
  switch (s.rung) {
    case 0:
      // Rung 1: halved timestep (Newton on a stiff cluster often
      // converges once the per-step excitation change shrinks).
      s.rung = 1;
      s.attempt = s.base;
      s.attempt.dt =
          0.5 * (s.attempt.dt > 0.0 ? s.attempt.dt : s.attempt.tstop / 2000.0);
      return PipelineStage::kBuildCluster;
    case 1: {
      // Rung 2: halved timestep + doubled reduced order (a too-small
      // Krylov space shows up as a non-passive or inaccurate model).
      s.rung = 2;
      const std::size_t base_order =
          s.attempt.mor.max_order > 0 ? s.attempt.mor.max_order
                                      : 8 * (1 + s.aggressors.size());
      s.attempt.mor.max_order = 2 * base_order;
      return PipelineStage::kBuildCluster;
    }
    case 2:
      s.rung = 3;
      return PipelineStage::kFullSim;
    default:
      return PipelineStage::kBound;
  }
}

PipelineStage VictimPipeline::stage_certify(RunState& s) const {
  const VerifierOptions& options = *ctx_.options;
  VictimFinding& finding = s.record.finding;
  if (!s.cert_entered) {
    // Certification only vouches for MOR results; a full-sim fallback
    // (or a certify-off run) passes straight through to finalization.
    const bool mor_result =
        s.have_sim && (finding.status == FindingStatus::kAnalyzed ||
                       finding.status == FindingStatus::kAnalyzedAfterRetry);
    if (!(options.certify && mor_result))
      return s.have_sim ? PipelineStage::kAudit : PipelineStage::kBound;
    s.cert_entered = true;
    s.q = std::max(s.res.reduced_order, s.mor_used.mor.max_order);
  }
  // Upward escalation: a failed certificate re-reduces at raised Krylov
  // order — each step adds moments, tightening the Padé approximant —
  // until it certifies, the ceiling is hit, or the basis is exhausted.
  // Budget expiry mid-escalation routes to the usual deadline/resource
  // statuses instead: an uncertified-but-plausible peak is NOT reported
  // as if it were trustworthy.
  if (!s.res.certified && !s.deadline_expired && !s.resource_exhausted &&
      !s.escalation_stopped && s.q < options.max_mor_order) {
    s.q = std::min(s.q + options.mor_order_step, options.max_mor_order);
    s.attempt = s.mor_used;
    s.attempt.mor.max_order = s.q;
    s.escalating = true;
    return PipelineStage::kBuildCluster;
  }
  finding.certified = s.res.certified;
  finding.cert_max_rel_err = s.res.certificate.max_rel_err;
  if (s.res.certified) {
    finding.status = FindingStatus::kCertified;
    return PipelineStage::kAudit;
  }
  // The accepted result cannot vouch for itself: discard it and let the
  // bound stage report conservatively.
  s.have_sim = false;
  if (!s.deadline_expired && !s.resource_exhausted) {
    s.accuracy_failed = true;
    if (finding.error.empty()) {
      char detail[64];
      std::snprintf(detail, sizeof(detail), "%.3g",
                    s.res.certificate.max_rel_err);
      finding.error = "accuracy certificate failed at order " +
                      std::to_string(s.res.reduced_order) + ": rel err " +
                      detail;
      if (!s.res.certificate.passivity_ok)
        finding.error += " (passivity/boundedness lost)";
      if (!s.res.certificate.probe_error.empty())
        finding.error += "; probe: " + s.res.certificate.probe_error;
      finding.error_code = StatusCode::kCertificationFailed;
    }
  }
  return PipelineStage::kBound;
}

PipelineStage VictimPipeline::stage_audit(RunState& s) const {
  const VerifierOptions& options = *ctx_.options;
  VictimFinding& finding = s.record.finding;
  finding.peak = s.res.peak;
  finding.peak_fraction = std::fabs(s.res.peak) / s.vdd;
  finding.violation = finding.peak_fraction >= options.glitch_threshold;
  finding.aggressors_analyzed = s.aggressors.size();
  finding.reduced_order = s.res.reduced_order;
  finding.driver_rms_current = s.res.victim_driver_rms_current;
  finding.em_violation =
      options.em_rms_limit > 0.0 &&
      s.res.victim_driver_rms_current > options.em_rms_limit;

  // Sampled SPICE cross-audit: a deterministic victim-keyed lottery
  // re-simulates this cluster on the golden engine (same abstraction
  // the accepted MOR result used) and diffs glitch peak and arrival
  // time. The audit only adds information — a finding never degrades
  // because its golden run was refused by the deadline or the budget.
  const bool mor_based =
      finding.status == FindingStatus::kAnalyzed ||
      finding.status == FindingStatus::kAnalyzedAfterRetry ||
      finding.status == FindingStatus::kCertified;
  if (mor_based && audit_selected(s.v, options)) {
    try {
      GlitchAnalysisOptions gold_opts = s.mor_used;
      gold_opts.certify = false;
      const GlitchResult gold =
          ctx_.analyzer->analyze_spice(s.victim, s.aggressors, gold_opts);
      finding.audited = true;
      finding.audit_peak_err = std::fabs(s.res.peak - gold.peak);
      finding.audit_time_err = std::fabs(wave_peak_time(s.res.victim_wave) -
                                         wave_peak_time(gold.victim_wave));
      finding.audit_pass =
          finding.audit_peak_err <= options.audit_peak_tol_frac * s.vdd &&
          finding.audit_time_err <= options.audit_time_tol;
    } catch (const std::exception&) {
      // Golden run refused (deadline/budget) or broke down: the victim
      // goes unaudited; its own result stands untouched.
    }
  }

  if (options.analyze_delay_change) {
    // Timing recalculation: the victim as a SWITCHING net, aggressors
    // forced opposite (worst case) vs the decoupled classic load.
    DelayAnalyzer delays(*ctx_.extractor, *ctx_.chars);
    DelayAnalysisOptions dopt;
    dopt.driver_model =
        options.glitch.driver_model == DriverModelKind::kNonlinearTable
            ? DriverModelKind::kNonlinearTable
            : DriverModelKind::kLinearResistor;
    dopt.victim_input_slew = ctx_.design->nets[s.v].input_slew;
    dopt.mor = options.glitch.mor;
    try {
      const CoupledDelayResult d =
          delays.analyze(s.victim, /*victim_rising=*/true, s.aggressors, dopt);
      finding.delay_decoupled = d.delay_decoupled;
      finding.delay_coupled = d.delay_coupled;
    } catch (const std::exception&) {
      // A victim that never completes its transition within the window
      // (or whose budget ran out mid-pass) is reported with zeroed
      // delays rather than aborting the audit.
    }
  }
  return PipelineStage::kDone;
}

PipelineStage VictimPipeline::stage_bound(RunState& s) const {
  const VerifierOptions& options = *ctx_.options;
  VictimFinding& finding = s.record.finding;
  // Terminal rung: Devgan analytic bound. Conservative (each term is an
  // upper bound on that aggressor's contribution), so the reported peak
  // is >= the true peak and a pass here is a real pass. The exemption
  // makes this stage live up to "cannot fail": computing the bound for
  // an already-over-budget cluster must not re-raise the breach.
  resource::ClusterScope::Exemption exempt;
  double bound = 0.0;
  for (const AggressorSpec& agg : s.aggressors)
    bound += devgan_noise_bound(s.victim, agg, *ctx_.extractor, *ctx_.chars);
  bound = std::min(bound, s.vdd);
  finding.status = s.resource_exhausted ? FindingStatus::kResourceBound
                   : s.deadline_expired ? FindingStatus::kDeadlineBound
                   : s.accuracy_failed  ? FindingStatus::kAccuracyBound
                                        : FindingStatus::kFellBackToBound;
  finding.peak = s.victim.held_high ? -bound : bound;
  finding.peak_fraction = bound / s.vdd;
  finding.violation = finding.peak_fraction >= options.glitch_threshold;
  finding.aggressors_analyzed = s.aggressors.size();
  return PipelineStage::kDone;
}

}  // namespace xtv
