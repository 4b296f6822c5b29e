// Circuit netlist data model.
//
// A `Circuit` is the common representation consumed by the SPICE-class
// engine (src/spice) and produced by the extractor (src/extract), the cell
// library (src/cells), and the cluster builder (src/core). It is a flat,
// typed element list over integer node ids; node 0 is ground.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace xtv {

/// Time-dependent source waveform: DC level, piecewise-linear samples, or a
/// periodic pulse (SPICE PULSE semantics without the period for one-shot).
class SourceWave {
 public:
  /// Constant value for all t.
  static SourceWave dc(double value);

  /// Piecewise-linear (t, v) samples; clamped to the end values outside the
  /// sample range. Times must be strictly increasing.
  static SourceWave pwl(std::vector<std::pair<double, double>> points);

  /// One-shot pulse: v0 until `delay`, linear rise over `rise` to v1, hold
  /// for `width`, linear fall over `fall` back to v0.
  static SourceWave pulse(double v0, double v1, double delay, double rise,
                          double width, double fall);

  /// A rising or falling full-swing ramp: v0 -> v1 starting at `delay`
  /// with transition time `slew` (straight line).
  static SourceWave ramp(double v0, double v1, double delay, double slew);

  /// Value at time t.
  double value(double t) const;

  /// Largest |dv/dt| anywhere on the waveform (0 for DC); used to pick
  /// default integration steps.
  double max_slope() const;

  /// True if the waveform never changes.
  bool is_dc() const { return points_.size() <= 1; }

  /// The internal PWL breakpoints (size 1 for DC). Exposed for deck export
  /// and for integrators that align time steps with source corners.
  const std::vector<std::pair<double, double>>& breakpoints() const {
    return points_;
  }

  /// Appends the breakpoint times: where the wave's slope can change.
  void append_corners(std::vector<double>& times) const {
    for (const auto& point : points_) times.push_back(point.first);
  }

 private:
  // Internal representation: PWL points (size 1 == DC).
  std::vector<std::pair<double, double>> points_;
};

/// One-port nonlinear termination (current source looking into a node).
/// Implemented by pre-characterized cell models (src/cells); both the SPICE
/// engine and the reduced-order simulator evaluate the same object, which is
/// what makes model-vs-model accuracy comparisons meaningful.
class OnePortDevice {
 public:
  virtual ~OnePortDevice() = default;

  /// Current flowing *into* the attached node when the node is at voltage
  /// `v` at time `t` (amperes).
  virtual double current(double v, double t) const = 0;

  /// Partial derivative d(current)/dv at (v, t) (siemens, <= 0 for
  /// passive-ish pull networks).
  virtual double conductance(double v, double t) const = 0;

  /// Appends the times where the device's drive changes slope (the
  /// corners of its input wave), so an error-controlled transient lands
  /// on them (util/step_control.h). Time-invariant devices add none.
  virtual void append_corners(std::vector<double>& /*times*/) const {}
};

struct Resistor {
  int a = 0;
  int b = 0;
  double ohms = 0.0;
};

struct Capacitor {
  int a = 0;
  int b = 0;
  double farads = 0.0;
  bool coupling = false;  ///< true for inter-net coupling capacitors
};

struct VoltageSource {
  int pos = 0;
  int neg = 0;
  SourceWave wave;
};

/// Injects wave.value(t) amperes INTO `into` and out of `from`.
struct CurrentSource {
  int from = 0;
  int into = 0;
  SourceWave wave;
};

enum class MosType { kNmos, kPmos };

/// Level-1 (Shichman–Hodges) MOSFET model card.
struct MosModel {
  MosType type = MosType::kNmos;
  double vt0 = 0.5;        ///< threshold voltage (V); sign-free, applied per type
  double kp = 110e-6;      ///< transconductance parameter (A/V^2)
  double lambda = 0.05;    ///< channel-length modulation (1/V)
  double cox = 5e-3;       ///< gate oxide capacitance per area (F/m^2)
  double cov = 3e-10;      ///< gate-drain/source overlap cap per width (F/m)
  double cj = 1e-3;        ///< junction cap per drain/source area proxy (F/m^2)
};

struct Mosfet {
  int d = 0;
  int g = 0;
  int s = 0;
  int model = 0;   ///< index into Circuit's model table
  double w = 1e-6; ///< channel width (m)
  double l = 0.25e-6; ///< channel length (m)
};

struct NonlinearTermination {
  int node = 0;
  std::shared_ptr<const OnePortDevice> device;
};

/// Flat netlist. Node 0 is ground ("0"). Elements may be appended in any
/// order; the MNA assembler resolves everything by index.
class Circuit {
 public:
  Circuit();

  /// Adds a named node and returns its id. Empty name auto-generates "n<k>".
  int add_node(const std::string& name = "");

  /// Ground node id (always 0).
  static constexpr int ground() { return 0; }

  int node_count() const { return static_cast<int>(node_names_.size()); }
  const std::string& node_name(int id) const { return node_names_.at(static_cast<std::size_t>(id)); }
  /// Finds a node by name; -1 if absent.
  int find_node(const std::string& name) const;

  void add_resistor(int a, int b, double ohms);
  void add_capacitor(int a, int b, double farads, bool coupling = false);
  void add_vsource(int pos, int neg, SourceWave wave);
  void add_isource(int from, int into, SourceWave wave);
  /// Registers a model card; returns its index for add_mosfet.
  int add_model(const MosModel& model);
  void add_mosfet(int d, int g, int s, int model, double w, double l);
  void add_termination(int node, std::shared_ptr<const OnePortDevice> device);

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<VoltageSource>& vsources() const { return vsources_; }
  const std::vector<CurrentSource>& isources() const { return isources_; }
  const std::vector<MosModel>& models() const { return models_; }
  const std::vector<Mosfet>& mosfets() const { return mosfets_; }
  const std::vector<NonlinearTermination>& terminations() const { return terminations_; }

  /// Appends every node and element of `other` into this circuit,
  /// connecting `other`'s node `their_node[i]` to this circuit's node
  /// `my_node[i]` (parallel arrays); all unmapped nodes are imported as
  /// fresh nodes. Returns the node-id translation table (index = other's
  /// node id). Ground always maps to ground.
  std::vector<int> merge(const Circuit& other, const std::vector<int>& their_node,
                         const std::vector<int>& my_node);

 private:
  void check_node(int id) const;

  std::vector<std::string> node_names_;
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<VoltageSource> vsources_;
  std::vector<CurrentSource> isources_;
  std::vector<MosModel> models_;
  std::vector<Mosfet> mosfets_;
  std::vector<NonlinearTermination> terminations_;
};

}  // namespace xtv
