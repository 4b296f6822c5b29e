// Crosstalk glitch analysis of one cluster — the tool's central operation.
//
// Two engines analyze the *same* cluster:
//   * the MOR path (the paper's contribution): extract -> SyMPVL reduce ->
//     reduced transient with the chosen driver model;
//   * the SPICE path (the golden reference): extract -> export the full RC
//     circuit -> nonlinear transient, with drivers either at the same
//     abstraction (for apples-to-apples engine comparison, Figure 3) or as
//     full transistor-level cell netlists (Figures 6/7, Tables 3/4).
//
// Worst-case aggressor alignment follows the paper's methodology: each
// aggressor's individual victim-response peak is found first (superposition
// holds in the linear interconnect), switch times are then chosen inside
// the aggressors' timing windows so the peaks coincide inside the victim's
// sensitive window, and logic correlations veto impossible combinations.
#pragma once

#include <memory>
#include <optional>

#include "cells/characterize.h"
#include "cells/driver_models.h"
#include "core/cluster.h"
#include "mor/certify.h"
#include "mor/model_cache.h"
#include "mor/reduced_sim.h"
#include "spice/simulator.h"
#include "spice/waveform.h"

namespace xtv {

/// Driver abstraction used for an analysis run.
enum class DriverModelKind {
  kLinearResistor,   ///< Section 4.1: timing-library resistance + ramp source
  kFixedResistor,    ///< a caller-specified resistance (Figure 3 uses 1 kOhm)
  kNonlinearTable,   ///< Section 4.2: pre-characterized I(Vin, Vout) surface
  kTransistor,       ///< full cell netlist (SPICE path only)
};

struct GlitchAnalysisOptions {
  DriverModelKind driver_model = DriverModelKind::kNonlinearTable;
  double fixed_resistance = 1e3;   ///< used by kFixedResistor
  double tstop = 4e-9;
  double dt = 2e-12;               ///< finest nominal step of both engines
  /// Error tolerance (V) of the reduced transient's step controller
  /// (ReducedSimOptions::lte_vtol): victim analyses and alignment probes
  /// step adaptively between dt and 16 dt. 0 = the fixed step dt. The
  /// golden path keeps its fixed step.
  double lte_vtol = 1e-3;
  SympvlOptions mor;               ///< reduction controls (MOR path)
  bool align_aggressors = true;    ///< worst-case peak alignment pass
  /// Allow the golden engine to reuse factorizations on linear circuits
  /// (set false to benchmark classic refactor-every-step SPICE behavior).
  bool spice_exploit_linearity = true;
  double default_switch_time = 0.5e-9;  ///< aggressor input start when not aligned
  /// Per-cluster wall-clock budget: forwarded into both engines' stepping
  /// loops (including alignment probe runs); an expired token aborts the
  /// analysis with kDeadlineExceeded. Null = unbounded. Not owned.
  const CancelToken* cancel = nullptr;

  // --- A-posteriori certification (DESIGN.md §10, MOR path only) ---

  /// Certify the reduced model against the exact cluster transfer function
  /// after every reduction; the Certificate (and its verdict at
  /// cert_rel_tol) is attached to the GlitchResult. analyze() never throws
  /// on a failed certificate — escalation is the verifier's job.
  bool certify = false;
  /// Max relative transfer-function error the certificate may carry.
  double cert_rel_tol = 0.02;
  /// Sample frequencies probed (log-spaced over the band the transient
  /// resolves: 1/tstop .. 1/(4 dt)).
  std::size_t cert_freqs = 5;

  /// Reduced-model cache shared across victims (mor/model_cache.h); null
  /// disables reuse. A fingerprint hit skips SyMPVL, certification, and
  /// the eigendecomposition entirely and is bit-identical to the fresh
  /// computation by the fingerprint contract. Not owned; must outlive the
  /// analysis (alignment probe runs inherit it).
  ModelCache* model_cache = nullptr;

  /// Canonical (permutation/tolerance-invariant) cache keys: when an
  /// exact lookup misses, consult the cache's canonical index, and reuse
  /// a tolerant hit only after its model re-passes the a-posteriori
  /// certificate against THIS cluster's exact (G, C, B) at cert_rel_tol
  /// (a failed certificate counts as a miss). Off by default: exact-bit
  /// keying remains the only mode whose reuse is bit-identical.
  bool canonical_cache = false;
  /// Relative quantization tolerance of the canonical key (values within
  /// this relative distance usually collide; see
  /// canonical_cluster_fingerprint).
  double canonical_cache_tol = 1e-6;
};

struct GlitchResult {
  double peak = 0.0;            ///< signed victim glitch peak (V) at the receiver
  double peak_at_driver = 0.0;  ///< signed peak at the victim driver end
  Waveform victim_wave;         ///< receiver-end victim waveform
  Waveform aggressor_wave;      ///< first aggressor's receiver waveform
  double cpu_seconds = 0.0;
  std::size_t reduced_order = 0;  ///< MOR path only
  std::vector<double> switch_times;  ///< chosen aggressor input start times

  /// Victim driver current during the event (electromigration audit, MOR
  /// path with the nonlinear model only; zero otherwise): the current the
  /// holding cell sources/sinks while fighting the glitch.
  double victim_driver_rms_current = 0.0;   ///< A (RMS over the window)
  double victim_driver_peak_current = 0.0;  ///< A (max |i|)

  /// A-posteriori accuracy certificate of the reduced model (filled by the
  /// MOR path when GlitchAnalysisOptions::certify is set).
  Certificate certificate;
  /// certificate.pass(options.cert_rel_tol) — the verdict at the tolerance
  /// the run was configured with.
  bool certified = false;
};

class GlitchAnalyzer {
 public:
  /// Both references must outlive the analyzer. `chars` characterizes
  /// lazily, so the first analysis with a given cell pays its one-time
  /// cost.
  GlitchAnalyzer(const Extractor& extractor, CharacterizedLibrary& chars);

  /// MOR path (SyMPVL + reduced nonlinear transient). Equivalent to
  /// prepare() -> reduce() -> simulate_reduced(); kept as the convenience
  /// entry point for callers outside the staged pipeline.
  GlitchResult analyze(const VictimSpec& victim,
                       const std::vector<AggressorSpec>& aggressors,
                       const GlitchAnalysisOptions& options);

  /// SPICE path (full circuit, golden).
  GlitchResult analyze_spice(const VictimSpec& victim,
                             const std::vector<AggressorSpec>& aggressors,
                             const GlitchAnalysisOptions& options);

  // --- Staged MOR path (core/pipeline.h drives these directly) ---

  struct BuiltCluster {
    RcNetwork network;
    std::vector<double> agg_drive_r;    ///< per-aggressor effective R
    double victim_drive_r = 0.0;        ///< victim holding resistance
  };

  /// Typed output of the BuildCluster stage: worst-case-aligned switch
  /// times plus the extracted, terminated cluster network.
  struct PreparedCluster {
    std::vector<double> switch_times;
    BuiltCluster built;
  };

  /// Typed output of the Reduce stage: the (possibly cache-served)
  /// certified reduced model + diagonalization.
  struct ReducedOutcome {
    std::shared_ptr<const CachedReducedModel> payload;  ///< never null
    bool from_cache = false;
    /// The payload came from a canonical (tolerant) hit: it is
    /// certificate-equivalent to a fresh reduction, not bit-identical.
    bool canonical = false;
  };

  /// BuildCluster stage: alignment probes (when enabled) + extraction.
  PreparedCluster prepare(const VictimSpec& victim,
                          const std::vector<AggressorSpec>& aggressors,
                          const GlitchAnalysisOptions& options);

  /// Reduce stage: SyMPVL + optional certificate + eigendecomposition,
  /// consulting options.model_cache first when present.
  ReducedOutcome reduce(const PreparedCluster& prepared,
                        const GlitchAnalysisOptions& options);

  /// SimulateReduced stage: terminations, reduced transient, peak/EM
  /// measurements. Pure consumer of the previous stages' outputs.
  GlitchResult simulate_reduced(const VictimSpec& victim,
                                const std::vector<AggressorSpec>& aggressors,
                                const PreparedCluster& prepared,
                                const ReducedOutcome& reduced,
                                const GlitchAnalysisOptions& options);

 private:
  /// Extracts the cluster network, adds receiver loads and driver output
  /// caps, stamps port conductances per the chosen model.
  BuiltCluster build_cluster(const VictimSpec& victim,
                             const std::vector<AggressorSpec>& aggressors,
                             const GlitchAnalysisOptions& options);

  /// Output-voltage ramp an aggressor presents under the Thevenin models.
  SourceWave aggressor_output_ramp(const AggressorSpec& agg, double switch_time,
                                   const GlitchAnalysisOptions& options);

  /// Picks worst-case-aligned switch times (one per aggressor).
  std::vector<double> align_switch_times(const VictimSpec& victim,
                                         const std::vector<AggressorSpec>& aggressors,
                                         const GlitchAnalysisOptions& options);

  const Extractor& extractor_;
  CharacterizedLibrary& chars_;
};

}  // namespace xtv
