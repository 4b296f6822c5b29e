// On-demand transistor-level driver model — the paper's stated future work
// ("extending it to transistor-level crosstalk analysis for higher
// accuracy", Section 6).
//
// Instead of a pre-characterized I(Vin, Vout) table, this OnePortDevice
// solves the cell's actual transistor netlist (DC, quasi-static) at every
// (input voltage, output voltage) the reduced-order transient visits,
// memoizing solutions on a fine lazy grid. It removes the table's
// interpolation error entirely while still running inside the fast MOR
// loop; the cost is a handful of small Newton solves per cluster, amortized
// by the cache.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "cells/cell_library.h"
#include "netlist/circuit.h"

namespace xtv {

/// Quasi-static transistor-level one-port driver. The referenced master
/// and technology must outlive the device.
class TransistorDcDriver final : public OnePortDevice {
 public:
  /// `input` is the waveform at the cell's switching pin; side pins sit at
  /// their non-controlling ties, enable asserted. `grid_step` is the
  /// memoization resolution on both voltage axes (linear interpolation in
  /// between, so accuracy is second-order in the step).
  TransistorDcDriver(const CellMaster& master, const Technology& tech,
                     SourceWave input, double grid_step = 0.025);

  double current(double v, double t) const override;
  double conductance(double v, double t) const override;
  void append_corners(std::vector<double>& times) const override {
    input_.append_corners(times);
  }

  /// Number of distinct DC operating points solved so far (cache size).
  std::size_t solves() const { return cache_.size(); }

 private:
  /// Exact DC output current with the switching pin at vin and the output
  /// forced to vout (memoized on the snapped grid).
  double solve_current(double vin, double vout) const;
  double grid_current(long gi, long gj) const;

  const CellMaster& master_;
  Technology tech_;
  SourceWave input_;
  double step_;
  mutable std::map<std::pair<long, long>, double> cache_;
};

}  // namespace xtv
