// Tests for the analytic estimates (Devgan noise bound, Sakurai delay
// expressions) and the verifier's noise screen built on them. The key
// property: the bound must be CONSERVATIVE — never below the simulated
// peak — across a parameterized sweep, or the screen would hide real
// violations.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "chipgen/dsp_chip.h"
#include "core/analytic_estimates.h"
#include "core/glitch_analyzer.h"
#include "core/verifier.h"
#include "util/units.h"

namespace xtv {
namespace {

const Technology kTech = Technology::default_250nm();

class AnalyticFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new CellLibrary(kTech);
    CharacterizeOptions copt;
    copt.iv_grid = 9;
    chars_ = new CharacterizedLibrary(*lib_, copt);
    extractor_ = new Extractor(kTech);
  }
  static void TearDownTestSuite() {
    delete chars_;
    delete lib_;
    delete extractor_;
    chars_ = nullptr;
    lib_ = nullptr;
    extractor_ = nullptr;
  }
  static CellLibrary* lib_;
  static CharacterizedLibrary* chars_;
  static Extractor* extractor_;
};

CellLibrary* AnalyticFixture::lib_ = nullptr;
CharacterizedLibrary* AnalyticFixture::chars_ = nullptr;
Extractor* AnalyticFixture::extractor_ = nullptr;

TEST(DevganBound, BasicFormulaAndClamp) {
  // 1 kOhm holder, 100 fF coupling, 10 V/ns aggressor: bound = 1 V.
  EXPECT_NEAR(devgan_noise_bound(1e3, 100e-15, 1e10, 3.0), 1.0, 1e-12);
  // Clamps at Vdd.
  EXPECT_DOUBLE_EQ(devgan_noise_bound(1e6, 100e-15, 1e10, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(devgan_noise_bound(1e3, 0.0, 1e10, 3.0), 0.0);
}

TEST(SakuraiDelay, MatchesSimulatedDistributedLine) {
  // Driver resistance + distributed wire + load: the closed form must land
  // within ~15% of the simulated 50% delay (its documented accuracy).
  Extractor ex(kTech);
  const NetRoute route{1500 * units::um, 0.0};
  const double rd = 500.0;
  const double cl = 30e-15;
  const double rw = ex.route_resistance(route);
  const double cw = ex.route_ground_cap(route);

  RcNetwork net = ex.extract_net(route);
  Circuit c;
  const int drv = c.add_node("drv");
  const int rcv = c.add_node("rcv");
  net.export_to(c, {drv, rcv}, /*include_port_conductances=*/false);
  const int src = c.add_node("src");
  c.add_vsource(src, Circuit::ground(), SourceWave::ramp(0.0, 3.0, 0.1e-9, 1e-12));
  c.add_resistor(src, drv, rd);
  c.add_capacitor(rcv, Circuit::ground(), cl);
  Simulator sim(c);
  TransientOptions opt;
  opt.tstop = 4e-9;
  opt.dt = 1e-12;
  const Waveform w = sim.transient(opt, {rcv}).probes[0];
  const auto t50 = w.crossing_time(1.5, true);
  ASSERT_TRUE(t50.has_value());
  const double measured = *t50 - 0.1e-9;
  const double predicted = sakurai_delay50(rd, rw, cw, cl);
  EXPECT_NEAR(predicted / measured, 1.0, 0.15);
  // And the 90% time is larger than the 50% time by construction.
  EXPECT_GT(sakurai_rise90(rd, rw, cw, cl), predicted);
}

// The conservatism sweep: for many victim/aggressor configurations, the
// Devgan bound must be >= the simulated glitch peak. Cell names are
// std::string so the registered test names print the name, not a pointer
// that moves with every run.
class DevganConservative
    : public AnalyticFixture,
      public ::testing::WithParamInterface<
          std::tuple<double, std::string, std::string>> {};

TEST_P(DevganConservative, BoundDominatesSimulatedPeak) {
  const auto [len_um, vic_cell, agg_cell] = GetParam();
  VictimSpec victim;
  victim.route = {len_um * units::um, 0.0};
  victim.driver_cell = vic_cell;
  victim.held_high = true;
  victim.receiver_cap = 10e-15;
  AggressorSpec agg;
  agg.route = {len_um * units::um, 0.0};
  agg.driver_cell = agg_cell;
  agg.rising = false;
  agg.input_slew = 0.1e-9;
  agg.receiver_cap = 10e-15;
  agg.run = {0, 0, 0.8 * len_um * units::um, 0.0, 0.1 * len_um * units::um,
             0.1 * len_um * units::um};

  const double bound = devgan_noise_bound(victim, agg, *extractor_, *chars_);

  GlitchAnalyzer analyzer(*extractor_, *chars_);
  GlitchAnalysisOptions opt;
  opt.driver_model = DriverModelKind::kNonlinearTable;
  opt.align_aggressors = false;
  const GlitchResult res = analyzer.analyze(victim, {agg}, opt);

  EXPECT_GE(bound, std::fabs(res.peak) * 0.999)
      << vic_cell << "/" << agg_cell << " @ " << len_um << "um: bound "
      << bound << " vs peak " << res.peak;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DevganConservative,
    ::testing::Combine(::testing::Values(200.0, 800.0, 2500.0),
                       ::testing::Values(std::string("INV_X1"),
                                         std::string("INV_X8")),
                       ::testing::Values(std::string("INV_X4"),
                                         std::string("BUF_X8"))));

TEST_F(AnalyticFixture, VerifierNoiseScreenIsSafeAndEffective) {
  DspChipOptions chip_opt;
  chip_opt.net_count = 120;
  chip_opt.tracks = 10;
  const ChipDesign design = generate_dsp_chip(*lib_, chip_opt);

  ChipVerifier verifier(*extractor_, *chars_);
  VerifierOptions base;
  base.glitch.align_aggressors = false;
  base.glitch.tstop = 3e-9;

  const VerificationReport full = verifier.verify(design, base);
  VerifierOptions screened = base;
  screened.use_noise_screen = true;
  const VerificationReport fast = verifier.verify(design, screened);

  // Safety: the set of violating nets must be identical — the screen may
  // only remove clusters that cannot violate.
  std::set<std::size_t> full_viol, fast_viol;
  for (const auto& f : full.findings)
    if (f.violation) full_viol.insert(f.net);
  for (const auto& f : fast.findings)
    if (f.violation) fast_viol.insert(f.net);
  EXPECT_EQ(fast_viol, full_viol);
  // And it removed real work.
  EXPECT_GT(fast.victims_screened_out, 0u);
  EXPECT_EQ(fast.victims_analyzed + fast.victims_screened_out,
            full.victims_analyzed);
}

}  // namespace
}  // namespace xtv
