// Tests for the cell library and characterization: transistor netlists,
// logic correctness of every family, timing tables, drive resistances, and
// the non-linear I-V surface (paper Section 4 machinery).
#include <gtest/gtest.h>

#include <cmath>

#include "cells/cell_library.h"
#include "cells/characterize.h"
#include "cells/driver_models.h"
#include "cells/table2d.h"
#include "spice/simulator.h"
#include "util/units.h"

namespace xtv {
namespace {

const Technology kTech = Technology::default_250nm();

// Instantiates `master` on a bench with the switching pin driven at
// `vin_switching` and side pins at their ties; returns the DC output.
double dc_output(const CellMaster& master, double vin_switching) {
  Circuit c;
  const int vdd = c.add_node("vdd");
  c.add_vsource(vdd, Circuit::ground(), SourceWave::dc(kTech.vdd));
  const int in = c.add_node("in");
  c.add_vsource(in, Circuit::ground(), SourceWave::dc(vin_switching));
  const int out = c.add_node("out");
  std::map<std::string, int> pins{{master.switching_pin(), in},
                                  {master.output_pin(), out}};
  for (const auto& pin : master.input_pins()) {
    if (pin == master.switching_pin()) continue;
    const int tied = c.add_node();
    c.add_vsource(tied, Circuit::ground(),
                  SourceWave::dc(master.tie_high(pin) ? kTech.vdd : 0.0));
    pins[pin] = tied;
  }
  master.instantiate(c, pins, vdd);
  Simulator sim(c);
  return sim.dc_operating_point()[static_cast<std::size_t>(out)];
}

TEST(CellLibrary, HasFiftyThreeMasters) {
  CellLibrary lib(kTech);
  EXPECT_EQ(lib.size(), 53u);  // the paper's Table-4 cell count
}

TEST(CellLibrary, NamesAreUniqueAndFindable) {
  CellLibrary lib(kTech);
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const int found = lib.find(lib.at(i).name());
    EXPECT_EQ(found, static_cast<int>(i)) << lib.at(i).name();
  }
  EXPECT_EQ(lib.find("NOT_A_CELL"), -1);
  EXPECT_THROW(lib.by_name("NOT_A_CELL"), std::runtime_error);
}

TEST(CellLibrary, FamilyQuery) {
  CellLibrary lib(kTech);
  EXPECT_EQ(lib.family(CellFamily::kInv).size(), 6u);
  EXPECT_EQ(lib.family(CellFamily::kTribuf).size(), 5u);
}

// Every master must implement its logic function at DC for the switching
// pin (with side pins at non-controlling ties): full parameterized sweep.
class CellLogic : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CellLogic, SwitchingPinControlsOutput) {
  CellLibrary lib(kTech);
  const CellMaster& m = lib.at(GetParam());
  const double out_lo = dc_output(m, 0.0);
  const double out_hi = dc_output(m, kTech.vdd);
  if (m.inverting()) {
    EXPECT_NEAR(out_lo, kTech.vdd, 0.02) << m.name();
    EXPECT_NEAR(out_hi, 0.0, 0.02) << m.name();
  } else {
    EXPECT_NEAR(out_lo, 0.0, 0.02) << m.name();
    EXPECT_NEAR(out_hi, kTech.vdd, 0.02) << m.name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllMasters, CellLogic, ::testing::Range<std::size_t>(0, 53));

TEST(CellMaster, StrongerDriveMeansWiderDevices) {
  CellLibrary lib(kTech);
  const CellMaster& x1 = lib.by_name("INV_X1");
  const CellMaster& x8 = lib.by_name("INV_X8");
  EXPECT_NEAR(x8.input_cap("A") / x1.input_cap("A"), 8.0, 0.5);
  EXPECT_GT(x8.output_cap(), x1.output_cap());
}

TEST(CellMaster, TribufHiZWhenDisabled) {
  CellLibrary lib(kTech);
  const CellMaster& m = lib.by_name("TRIBUF_X4");
  // Bench with EN = 0: output floats; a weak external holder keeps it at
  // an arbitrary level that the cell must not fight.
  Circuit c;
  const int vdd = c.add_node("vdd");
  c.add_vsource(vdd, Circuit::ground(), SourceWave::dc(kTech.vdd));
  const int in = c.add_node("in");
  c.add_vsource(in, Circuit::ground(), SourceWave::dc(kTech.vdd));
  const int en = c.add_node("en");
  c.add_vsource(en, Circuit::ground(), SourceWave::dc(0.0));
  const int out = c.add_node("out");
  // Weak holder to 1.17 V.
  const int hold = c.add_node("hold");
  c.add_vsource(hold, Circuit::ground(), SourceWave::dc(1.17));
  c.add_resistor(hold, out, 1e6);
  m.instantiate(c, {{"A", in}, {"EN", en}, {"Y", out}}, vdd);
  Simulator sim(c);
  const double v = sim.dc_operating_point()[static_cast<std::size_t>(out)];
  EXPECT_NEAR(v, 1.17, 0.05);  // Hi-Z: holder wins
}

TEST(CellMaster, InstantiateRejectsMissingPins) {
  CellLibrary lib(kTech);
  const CellMaster& m = lib.by_name("NAND2_X1");
  Circuit c;
  const int vdd = c.add_node();
  const int out = c.add_node();
  EXPECT_THROW(m.instantiate(c, {{"A", out}}, vdd), std::runtime_error);
}

TEST(Table2D, BilinearInterpolation) {
  Table2D t({0.0, 1.0}, {0.0, 2.0}, {0.0, 2.0, 10.0, 12.0});
  EXPECT_DOUBLE_EQ(t.lookup(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(t.lookup(1.0, 2.0), 12.0);
  EXPECT_DOUBLE_EQ(t.lookup(0.5, 1.0), 6.0);
  // Clamping outside the grid.
  EXPECT_DOUBLE_EQ(t.lookup(-1.0, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(t.lookup(5.0, 5.0), 12.0);
}

TEST(Table2D, DerivativeAlongY) {
  Table2D t({0.0, 1.0}, {0.0, 2.0}, {0.0, 2.0, 10.0, 12.0});
  EXPECT_DOUBLE_EQ(t.d_dy(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(t.d_dy(1.0, 1.0), 1.0);
}

TEST(Table2D, RejectsBadAxes) {
  EXPECT_THROW(Table2D({1.0, 1.0}, {0.0, 1.0}, {0, 0, 0, 0}), std::runtime_error);
  EXPECT_THROW(Table2D({0.0, 1.0}, {0.0, 1.0}, {0, 0}), std::runtime_error);
}

// Characterization is the expensive part: do it once for a couple of cells
// and verify the derived models.
class CharacterizeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new CellLibrary(kTech);
    CharacterizeOptions opt;
    opt.iv_grid = 9;
    inv4_ = new CellModel(characterize_cell(lib_->by_name("INV_X4"), kTech, opt));
    inv1_ = new CellModel(characterize_cell(lib_->by_name("INV_X1"), kTech, opt));
  }
  static void TearDownTestSuite() {
    delete inv1_;
    delete inv4_;
    delete lib_;
    inv1_ = inv4_ = nullptr;
    lib_ = nullptr;
  }
  static CellLibrary* lib_;
  static CellModel* inv1_;
  static CellModel* inv4_;
};

CellLibrary* CharacterizeFixture::lib_ = nullptr;
CellModel* CharacterizeFixture::inv1_ = nullptr;
CellModel* CharacterizeFixture::inv4_ = nullptr;

TEST_F(CharacterizeFixture, DelayIncreasesWithLoad) {
  const auto& t = inv4_->rise.delay;
  const double slew = t.x_axis().front();
  double prev = 0.0;
  for (double load : t.y_axis()) {
    const double d = t.lookup(slew, load);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST_F(CharacterizeFixture, StrongerCellIsFaster) {
  const double slew = 0.2e-9, load = 80e-15;
  EXPECT_LT(inv4_->rise.delay.lookup(slew, load),
            inv1_->rise.delay.lookup(slew, load));
  EXPECT_LT(inv4_->drive_resistance_rise, inv1_->drive_resistance_rise);
}

TEST_F(CharacterizeFixture, DriveResistanceInPlausibleRange) {
  // X1 inverter at 0.25 um / 3 V: effective drive around 0.5-5 kOhm.
  EXPECT_GT(inv1_->drive_resistance_rise, 200.0);
  EXPECT_LT(inv1_->drive_resistance_rise, 8e3);
  EXPECT_GT(inv1_->drive_resistance_fall, 100.0);
  EXPECT_LT(inv1_->drive_resistance_fall, 8e3);
}

TEST_F(CharacterizeFixture, IvSurfaceSigns) {
  const auto& iv = inv1_->iv_surface;
  // Input low -> PMOS on: at vout = 0 the cell sources current INTO the
  // node (positive); at vout = vdd it is in equilibrium (≈ 0).
  EXPECT_GT(iv.lookup(0.0, 0.0), 1e-5);
  EXPECT_NEAR(iv.lookup(0.0, kTech.vdd), 0.0, 5e-5);
  // Input high -> NMOS on: at vout = vdd the cell sinks (negative).
  EXPECT_LT(iv.lookup(kTech.vdd, kTech.vdd), -1e-5);
  EXPECT_NEAR(iv.lookup(kTech.vdd, 0.0), 0.0, 5e-5);
}

TEST_F(CharacterizeFixture, IvSurfaceConductanceIsStabilizing) {
  // Around the held rail, d(i)/d(vout) must be negative (restoring).
  const auto& iv = inv1_->iv_surface;
  EXPECT_LT(iv.d_dy(0.0, kTech.vdd - 0.2), 0.0);
  EXPECT_LT(iv.d_dy(kTech.vdd, 0.2), 0.0);
}

TEST_F(CharacterizeFixture, NonlinearDriverTracksInputWave) {
  auto model = std::make_shared<CellModel>(*inv1_);
  NonlinearTableDriver drv(model, SourceWave::ramp(0.0, kTech.vdd, 1e-9, 1e-9));
  // Early (input low): sources current at vout=0.
  EXPECT_GT(drv.current(0.0, 0.0), 0.0);
  // Late (input high): sinks current at vout=vdd.
  EXPECT_LT(drv.current(kTech.vdd, 10e-9), 0.0);
  EXPECT_DOUBLE_EQ(drv.output_cap(), model->output_cap);
}

TEST_F(CharacterizeFixture, HoldingDriverKeepsVictimQuietInSpice) {
  // Put the nonlinear holding model on a node, inject a current pulse, and
  // check it restores the rail — the victim-holder role in glitch analysis.
  auto model = std::make_shared<CellModel>(*inv1_);
  Circuit c;
  const int n = c.add_node();
  // Input low -> output holds high.
  c.add_termination(n, std::make_shared<NonlinearTableDriver>(model, SourceWave::dc(0.0)));
  c.add_capacitor(n, Circuit::ground(), 20e-15);
  c.add_isource(n, Circuit::ground(),
                SourceWave::pwl({{0.0, 0.0}, {0.1e-9, 2e-3}, {0.3e-9, 2e-3}, {0.31e-9, 0.0}}));
  Simulator sim(c);
  TransientOptions opt;
  opt.tstop = 2e-9;
  opt.dt = 2e-12;
  const Waveform w = sim.transient(opt, {n}).probes[0];
  EXPECT_NEAR(w.first_value(), kTech.vdd, 0.05);   // held at rail
  EXPECT_LT(w.min_value(), kTech.vdd - 0.3);       // pulse dips it
  EXPECT_NEAR(w.last_value(), kTech.vdd, 0.05);    // restored
}

TEST(CharacterizedLibrary, CachesModels) {
  CellLibrary lib(kTech);
  CharacterizeOptions opt;
  opt.iv_grid = 5;
  opt.input_slews = {0.2e-9};
  opt.load_caps = {10e-15, 40e-15};
  CharacterizedLibrary chars(lib, opt);
  const CellModel& a = chars.model("INV_X2");
  const CellModel& b = chars.model("INV_X2");
  EXPECT_EQ(&a, &b);  // same cached object
  EXPECT_EQ(a.cell, "INV_X2");
}

}  // namespace
}  // namespace xtv
