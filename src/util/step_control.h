// Error-controlled time stepping, shared by both transient engines.
//
// The reduced-order engine (mor/reduced_sim.h, ReducedSimOptions::lte_vtol)
// and the golden engine (spice/simulator.h, TransientOptions::adaptive)
// walk time through this one controller:
//   - Error estimate: the second difference of the trial point's voltages
//     against the last two accepted samples, scaled for the uneven step
//     pair -- the trial's deviation from the straight line through the
//     history, about v'' h (h + h_prev) / 2.
//   - Above the tolerance the trial is rejected and retried at half the
//     step, but an error rejection never goes below the base step dt.
//     Below a quarter of the tolerance the next step doubles, up to a cap.
//   - Steps land exactly on each drive-wave corner, where the
//     solution's slope jumps, and the step after a corner restarts at dt.
//   - A tolerance of 0 is the fixed step dt, exactly: corners are ignored
//     and time advances as t += min(dt, tstop - t).
// The step sequence depends only on the inputs, so every backend that
// runs the same transient takes the same steps.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace xtv {

class StepController {
 public:
  /// `dt` is the base step, `tol` the error tolerance in volts (0 = fixed
  /// step), `max_step` the growth cap. `corners` are the drive-wave corner
  /// times in any order; those within dt/16 of 0, of tstop or of an earlier
  /// corner are merged away.
  StepController(double tstop, double dt, double tol, double max_step,
                 std::vector<double> corners);

  /// Seeds the history with the t = 0 (DC) solution. A DC point is a
  /// steady state, so the history before it is flat.
  void start(std::span<const double> v);

  bool done() const { return t_ >= tstop_ - 1e-18; }
  /// Time of the last accepted point.
  double time() const { return t_; }

  /// Opens the next time point: picks its first trial step.
  void begin_step();
  /// The trial step.
  double step() const { return h_; }
  /// Time the trial step reaches: time() + step(), or exactly the corner
  /// or tstop it lands on.
  double trial_time() const { return lands_ ? target_ : t_ + h_; }

  /// Halves the trial step after a Newton failure. No floor applies: the
  /// engine owns the halving budget and its error.
  void halve() {
    h_ *= 0.5;
    lands_ = false;
  }

  /// Judges a converged trial from its voltages `v`. If the error estimate
  /// exceeds the tolerance while the step is above dt, halves the step
  /// (not below dt) and returns false: retry. Otherwise accepts the point,
  /// advances time() and picks the next step.
  bool accept(std::span<const double> v);

 private:
  double tstop_, dt_, tol_, max_step_, merge_;
  std::vector<double> corners_;  ///< sorted, merged, inside (0, tstop)
  std::size_t next_corner_ = 0;  ///< first corner not yet passed
  double t_ = 0.0;
  double h_ = 0.0;         ///< trial step
  double h_next_ = 0.0;    ///< first trial step of the next point
  double h_prev_ = 0.0;    ///< last accepted step
  double target_ = 0.0;    ///< landing time when lands_
  bool lands_ = false;
  std::vector<double> cur_, prev_;  ///< last two accepted samples
};

}  // namespace xtv
