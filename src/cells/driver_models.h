// Driver models for signal-integrity analysis (paper Section 4).
//
// All three model classes implement OnePortDevice, so they plug equally
// into the golden SPICE-class engine and the reduced-order simulator —
// which is precisely how the paper's Tables 3/4 and Figures 6/7 compare
// model accuracy against transistor-level simulation.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cells/characterize.h"
#include "netlist/circuit.h"

namespace xtv {

/// Section 4.1: linear-resistor (Thevenin) driver — a voltage waveform
/// behind the effective drive resistance deduced from the timing library.
class TheveninDriver final : public OnePortDevice {
 public:
  TheveninDriver(SourceWave voltage, double ohms);

  double current(double v, double t) const override;
  double conductance(double v, double t) const override;
  void append_corners(std::vector<double>& times) const override {
    voltage_.append_corners(times);
  }

  double resistance() const { return ohms_; }

 private:
  SourceWave voltage_;
  double ohms_;
};

/// Section 4.2: non-linear cell model — the pre-characterized quasi-static
/// output-current surface I(Vin, Vout) driven by the cell's input waveform.
/// For a quiet (holding) victim driver pass a DC input wave; for a
/// switching aggressor pass the input transition ramp. The surface is
/// shared (characterization is a one-time task).
class NonlinearTableDriver final : public OnePortDevice {
 public:
  /// `model` must outlive the driver (held by shared_ptr to the
  /// characterized model bundle). For a *switching* driver pass the warp
  /// obtained from CellModel::warp(output_rising, input_slew, load); the
  /// input wave is then delay-shifted and slew-stretched so the quasi-
  /// static surface reproduces the cell's real transient (multi-stage
  /// cells). Omit it (nullopt) for quiet holding drivers.
  NonlinearTableDriver(std::shared_ptr<const CellModel> model, SourceWave input,
                       std::optional<CellModel::Warp> warp = std::nullopt);

  double current(double v, double t) const override;
  double conductance(double v, double t) const override;
  /// The corners of the warped input wave: those are where the drive
  /// current's slope changes.
  void append_corners(std::vector<double>& times) const override {
    input_.append_corners(times);
  }

  /// Intrinsic output capacitance to add at the driven net.
  double output_cap() const { return model_->output_cap; }

 private:
  std::shared_ptr<const CellModel> model_;
  SourceWave input_;
};

}  // namespace xtv
