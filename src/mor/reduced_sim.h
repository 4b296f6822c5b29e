// Fast time-domain simulation of the SyMPVL reduced model with nonlinear
// driver terminations (paper Section 3, eqs. (4)-(7)).
//
// The reduced system v' + T dv'/dt = rho * i is diagonalized once per
// cluster by factoring T = Q^T D Q and substituting x = Q v', eta = Q rho:
//     D dx/dt + x = eta * (u(t) + i_nl(V_x, t)),   V_x = eta^T x
// where u(t) collects the known (linear) port current inputs — aggressor
// Thevenin sources become current injections after their conductances are
// stamped into G — and i_nl collects the nonlinear driver currents.
// A linear multistep discretization writes dx/dt|_k = alpha x_k + beta_k;
// each Newton iteration then solves a Jacobian that is a rank-m
// modification of a diagonal matrix,
//     (I + alpha D + eta_S g eta_S^T) dx = -residual          (eq. 7)
// handled in O(q m^2) via the Woodbury identity. This is what makes
// full-chip crosstalk verification tractable: per-step cost is linear in
// the reduced order regardless of the original cluster size.
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "mor/sympvl.h"
#include "netlist/circuit.h"
#include "spice/waveform.h"
#include "util/deadline.h"

namespace xtv {

struct ReducedSimOptions {
  double tstop = 0.0;           ///< required > 0
  double dt = 0.0;              ///< 0 = tstop/2000
  bool trapezoidal = true;      ///< false = backward Euler
  double v_abstol = 1e-7;       ///< Newton convergence on port voltages (V)
  int max_newton = 50;
  /// Newton-divergence budget: a time point whose Newton diverges is
  /// retried with a halved step up to this many times before the run
  /// reports NumericalError. Subsequent points return to at least dt.
  int max_step_halvings = 6;
  /// Error-controlled stepping (util/step_control.h) on the port voltages:
  /// when > 0, the step grows in quiet stretches up to 16 dt, halves (never
  /// below dt) where the second-difference error estimate exceeds this
  /// many volts, and lands exactly on every corner of every drive wave
  /// (the set_input waves and each termination's append_corners()).
  /// 0 (default) is the fixed step dt, exactly.
  double lte_vtol = 0.0;
  /// Cooperative cancellation: polled once per attempted time step; an
  /// expired/cancelled token raises kDeadlineExceeded (the verifier's
  /// per-cluster wall-clock budget). Null = never cancelled. Not owned;
  /// must outlive the run.
  const CancelToken* cancel = nullptr;
};

struct ReducedSimResult {
  std::vector<Waveform> port_voltages;  ///< one waveform per model port
  std::size_t steps = 0;
  std::size_t newton_iterations = 0;
  std::size_t step_rejections = 0;      ///< Newton/error retries at a halved step
};

/// The diagonalized reduced system T = Q^T D Q: everything the transient
/// engine needs, decoupled from the simulator instance so a certified
/// eigendecomposition can be cached and reused across electrically
/// identical clusters (mor/model_cache.h).
struct ReducedEigenSystem {
  Vector d;         ///< eigenvalues of T (clamped to >= 0)
  DenseMatrix eta;  ///< Q * rho  (q x p)
};

/// Diagonalizes the reduced model once, enforcing the passivity contract:
/// a genuinely indefinite T (beyond round-off) raises kNotPassive; tiny
/// negative round-off eigenvalues are clamped to zero.
ReducedEigenSystem diagonalize_reduced(const ReducedModel& model);

/// One simulator instance per reduced model; terminations/inputs may be
/// reconfigured between runs (each run() starts from a fresh DC solve).
class ReducedSimulator {
 public:
  explicit ReducedSimulator(const ReducedModel& model);

  /// Adopts an existing (possibly cached) diagonalization, skipping the
  /// eigen solve entirely.
  explicit ReducedSimulator(ReducedEigenSystem system);

  /// Injected current INTO port `port` as a function of time (the linear
  /// excitation path: e.g. a Thevenin aggressor source V(t)/R after its
  /// 1/R was stamped into G pre-reduction).
  void set_input(std::size_t port, SourceWave current);

  /// Attaches a nonlinear one-port device at `port`; its current(v, t) is
  /// added to the port's injected current. At most one device per port.
  void set_termination(std::size_t port, std::shared_ptr<const OnePortDevice> device);

  /// Removes all inputs and terminations.
  void clear();

  /// Runs the transient from the DC point (the t = 0 sample of every
  /// port waveform is the DC fixed point x = eta * i(V_x, 0)).
  ReducedSimResult run(const ReducedSimOptions& options);

  std::size_t port_count() const { return eta_.cols(); }
  std::size_t order() const { return d_.size(); }

 private:
  /// Flattens the input/termination maps into the per-run arrays below
  /// and invalidates the per-alpha cache.
  void bind_configuration();

  /// Refreshes Dd^{-1} = (I + alpha D)^{-1} and S = U^T Dd^{-1} U when
  /// alpha differs from the cached value.
  void set_alpha(double alpha);

  /// One Newton solve of (I + alpha D) x + D beta = eta * i_total(V_x, t).
  /// Returns true on convergence; x updated in place.
  bool newton_solve(Vector& x, double t, double alpha, const Vector& d_beta,
                    int max_newton, double v_abstol, std::size_t& iterations);

  Vector d_;           ///< eigenvalues of T (ascending, >= 0 up to round-off)
  DenseMatrix eta_;    ///< Q * rho  (q x p)
  std::map<std::size_t, SourceWave> inputs_;
  std::map<std::size_t, std::shared_ptr<const OnePortDevice>> terminations_;

  /// The configuration flattened once per run: the maps walked into
  /// arrays the inner loops index directly.
  std::vector<std::pair<std::size_t, const SourceWave*>> input_list_;
  /// Ports that carry current (inputs and terminations), ascending: the
  /// only nonzero entries of i_total, so eta * i_total skips the rest.
  std::vector<std::size_t> current_ports_;
  std::vector<std::size_t> nl_ports_;
  std::vector<const OnePortDevice*> nl_devs_;
  /// eta's nonlinear-port columns packed q x m row-major (U), so the
  /// Woodbury loops read them contiguously. Pure copies: every
  /// accumulation sees the same values in the same order.
  Vector u_cols_;
  /// Per-alpha Woodbury pieces. Dd^{-1} and S = U^T Dd^{-1} U depend only
  /// on alpha and the fixed (d, eta, ports), not on the Newton iterate,
  /// so they are rebuilt only when alpha changes (the DC solve's alpha = 0,
  /// the first step, a halved or shortened step).
  Vector dd_inv_, s_alpha_;
  double alpha_cached_ = 0.0;
  bool alpha_valid_ = false;

  /// Newton/recording scratch reused across iterations, steps, and runs.
  /// Buffers are assign()ed to their full extent before use, so reuse
  /// cannot change any value.
  struct Scratch {
    Vector u, itotal, g, eta_i, r, dx, srhs, rgw, dv, msys, w;
    Vector rec;
    std::vector<std::size_t> perm;
  };
  Scratch scratch_;
};

}  // namespace xtv
