// SPICE-class circuit simulator: Newton–Raphson DC and transient analysis
// over sparse MNA.
//
// This is the "golden" engine the paper compares against (its role is
// played by commercial SPICE in the original work): it solves the full
// nonlinear circuit — extracted RC parasitics, Level-1 MOSFET drivers,
// table-model terminations — with no order reduction. The crosstalk
// verifier (src/core) uses it both for accuracy audits and to characterize
// cells (src/cells).
#pragma once

#include <vector>

#include "linalg/sparse_lu.h"
#include "linalg/sparse_matrix.h"
#include "netlist/circuit.h"
#include "spice/waveform.h"
#include "util/deadline.h"

namespace xtv {

/// Integration method for transient analysis.
enum class IntegrationMethod {
  kBackwardEuler,  ///< L-stable, first order
  kTrapezoidal,    ///< A-stable, second order (default)
};

struct TransientOptions {
  double tstop = 0.0;             ///< end time (s); required > 0
  double dt = 0.0;                ///< fixed step (s); 0 = tstop/2000
  IntegrationMethod method = IntegrationMethod::kTrapezoidal;
  double v_abstol = 1e-6;         ///< Newton convergence: max |dV| (V)
  double v_reltol = 1e-6;         ///< plus reltol * |V|
  int max_newton = 60;            ///< iterations per time point
  double max_newton_dv = 0.6;     ///< per-iteration voltage-step clamp (V)
  int max_step_halvings = 8;      ///< local dt refinement on Newton failure
  /// Reuse one factorization for linear circuits (an optimization a
  /// general-purpose SPICE does not make — disable to benchmark the
  /// classic refactor-every-iteration behavior).
  bool exploit_linearity = true;

  /// Error-controlled stepping (util/step_control.h, shared with the
  /// reduced engine): the second difference of the node voltages estimates
  /// the LTE; the step halves (never below dt) when it exceeds `lte_vtol`,
  /// grows (up to `max_dt_growth` x dt) when it is below a quarter of it,
  /// and lands exactly on every source and termination corner. Keeps the
  /// fixed-step behavior when false (default).
  bool adaptive = false;
  double lte_vtol = 5e-3;      ///< volts of estimated LTE per step
  double max_dt_growth = 16.0; ///< cap on dt relative to the base step

  /// Cooperative cancellation: polled once per Newton iteration (a full
  /// sparse refactor can dominate a step, so per-step polling would be
  /// too coarse); an expired/cancelled token raises kDeadlineExceeded.
  /// Null = never cancelled. Not owned; must outlive the run.
  const CancelToken* cancel = nullptr;
};

struct TransientResult {
  std::vector<Waveform> probes;        ///< parallel to the probe node list
  std::size_t steps = 0;               ///< accepted time points
  std::size_t newton_iterations = 0;   ///< total Newton iterations
};

/// One simulator instance is bound to one circuit; construction analyzes
/// the MNA structure (unknown numbering, sparsity, fill ordering).
class Simulator {
 public:
  /// `gmin` is the global node-to-ground regularization conductance; it
  /// keeps otherwise-floating nodes (cap-only internal nodes at DC,
  /// undriven tri-state buses) well-posed, exactly as production SPICE
  /// does.
  explicit Simulator(const Circuit& circuit, double gmin = 1e-12);

  /// Solves the DC operating point (capacitors open, sources at t=0).
  /// Returns node voltages indexed by node id (entry 0 — ground — is 0).
  /// Falls back to gmin stepping when plain Newton diverges; throws
  /// std::runtime_error if the circuit cannot be solved.
  Vector dc_operating_point();

  /// DC operating point plus branch currents.
  struct DcResult {
    Vector node_voltages;      ///< indexed by node id; ground entry is 0
    Vector vsource_currents;   ///< one per voltage source, in circuit order:
                               ///< positive flowing pos -> (through the
                               ///< source) -> neg, the SPICE convention
  };
  DcResult dc_full();

  /// Runs a transient from the DC operating point. `probe_nodes` selects
  /// which node voltages are recorded.
  TransientResult transient(const TransientOptions& options,
                            const std::vector<int>& probe_nodes);

 private:
  struct CapState {
    int a = 0;
    int b = 0;
    double farads = 0.0;
    double i_prev = 0.0;  ///< branch current at the previous accepted point
  };

  // Unknown layout: [node voltages for nodes 1..N-1][vsource currents].
  std::size_t unknown_count() const;
  int node_unknown(int node) const { return node - 1; }  // node > 0

  /// Assembles J and rhs at time t around trial unknowns x. `geq_scale`
  /// (1/dt-ish) == 0 means DC (capacitors open). Companion history terms
  /// come from prev_x/cap state.
  void assemble(const Vector& x, double t, double geq_scale,
                IntegrationMethod method, const Vector& prev_x, double gmin,
                TripletList& jac, Vector& rhs) const;

  /// Runs Newton at a fixed (t, companion) configuration; returns true on
  /// convergence, updating x in place.
  bool newton_solve(Vector& x, double t, double geq_scale,
                    IntegrationMethod method, const Vector& prev_x, double gmin,
                    const TransientOptions& options, std::size_t& iterations);

  /// Extracts the voltage of `node` from the unknown vector.
  double voltage(const Vector& x, int node) const {
    return node == Circuit::ground() ? 0.0
                                     : x[static_cast<std::size_t>(node_unknown(node))];
  }

  /// Updates capacitor branch-current history after an accepted step.
  void update_cap_history(const Vector& x, const Vector& prev_x,
                          double geq_scale, IntegrationMethod method);

  const Circuit& circuit_;
  double gmin_;
  std::vector<CapState> caps_;  ///< explicit caps + expanded MOSFET caps
  std::vector<std::size_t> fill_order_;
  std::unique_ptr<SparseLu> lu_;  ///< reused across refactors once built
  bool is_linear_ = false;        ///< no MOSFETs/terminations: one factor per dt
  double lu_geq_scale_ = -1.0;    ///< geq_scale the cached factorization used
  double lu_gmin_ = -1.0;         ///< gmin the cached factorization used
};

}  // namespace xtv
