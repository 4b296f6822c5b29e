// Integration tests: end-to-end flows across modules — characterization
// persistence, the on-demand transistor-level driver (the paper's future-
// work extension), verifier timing recalculation, deck export of extracted
// clusters, and cross-engine parity sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "cells/transistor_driver.h"
#include "chipgen/dsp_chip.h"
#include "core/verifier.h"
#include "netlist/spice_deck.h"
#include "util/units.h"

namespace xtv {
namespace {

const Technology kTech = Technology::default_250nm();

class IntegrationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new CellLibrary(kTech);
    CharacterizeOptions copt;
    copt.iv_grid = 11;
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

CellLibrary* IntegrationFixture::lib_ = nullptr;
CharacterizedLibrary* IntegrationFixture::chars_ = nullptr;
Extractor* IntegrationFixture::extractor_ = nullptr;

TEST_F(IntegrationFixture, CellModelCacheRoundTrips) {
  const std::string path = "/tmp/xtv_test_cache.txt";
  const CellModel& original = chars_->model("INV_X2");
  EXPECT_GE(chars_->save(path), 1u);

  CharacterizedLibrary fresh(*lib_);
  EXPECT_EQ(fresh.load(path), 1u);
  EXPECT_TRUE(fresh.has_model("INV_X2"));
  const CellModel& loaded = fresh.model("INV_X2");

  EXPECT_DOUBLE_EQ(loaded.input_cap, original.input_cap);
  EXPECT_DOUBLE_EQ(loaded.drive_resistance_rise, original.drive_resistance_rise);
  EXPECT_LT(loaded.iv_surface.lookup(1.5, 1.5) -
                original.iv_surface.lookup(1.5, 1.5),
            1e-18);
  EXPECT_DOUBLE_EQ(loaded.rise.delay.lookup(0.2e-9, 40e-15),
                   original.rise.delay.lookup(0.2e-9, 40e-15));
  const CellModel::Warp wo = original.warp(true, 0.2e-9, 40e-15);
  const CellModel::Warp wl = loaded.warp(true, 0.2e-9, 40e-15);
  EXPECT_DOUBLE_EQ(wo.shift, wl.shift);
  EXPECT_DOUBLE_EQ(wo.stretch, wl.stretch);
  std::remove(path.c_str());
}

TEST_F(IntegrationFixture, LoadIgnoresStaleCache) {
  const std::string path = "/tmp/xtv_stale_cache.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("xtv-cellmodels-v1 1\ncell BOGUS\n", f);
    std::fclose(f);
  }
  CharacterizedLibrary fresh(*lib_);
  EXPECT_EQ(fresh.load(path), 0u);
  EXPECT_EQ(fresh.load("/nonexistent/path"), 0u);
  std::remove(path.c_str());
}

TEST_F(IntegrationFixture, LoadRejectsCorruptCurrentCacheNamingTheLine) {
  // A file that *claims* to be a current cache but is damaged must throw
  // (pointing at the bad line), never feed garbage models into analysis.
  const std::string path = "/tmp/xtv_corrupt_cache.txt";
  auto write = [&](const char* text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(text, f);
    std::fclose(f);
  };
  auto expect_rejected = [&](const char* text, const char* needle) {
    write(text);
    CharacterizedLibrary fresh(*lib_);
    try {
      fresh.load(path);
      FAIL() << "expected NumericalError for: " << text;
    } catch (const NumericalError& e) {
      EXPECT_EQ(e.code(), StatusCode::kInvalidInput);
      EXPECT_NE(std::string(e.what()).find(path + ":"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
    // The failed load must leave the cache empty — no partial ingestion.
    EXPECT_FALSE(fresh.has_model("INV_X2"));
  };

  // Truncated mid-record.
  expect_rejected("xtv-cellmodels-v3 1\ncell INV_X2\n1e-15 2e-15\n",
                  "truncated");
  // Malformed numeric field.
  expect_rejected("xtv-cellmodels-v3 1\ncell INV_X2\n1e-15 2e-15 abc 100\n",
                  "malformed");
  // Non-finite table data is data corruption, not a model.
  expect_rejected(
      "xtv-cellmodels-v3 1\ncell INV_X2\n1e-15 2e-15 100 100\n"
      "table rise_delay 2 2\n1e-10 2e-10\n1e-15 2e-15\n1 2 nan 4\n",
      "non-finite");
  // A wrong record header at the top level.
  expect_rejected("xtv-cellmodels-v3 1\nnotacell INV_X2\n", "expected cell");
  std::remove(path.c_str());
}

TEST_F(IntegrationFixture, TransistorDcDriverMatchesDirectDcSolve) {
  const CellMaster& master = lib_->by_name("INV_X2");
  TransistorDcDriver driver(master, kTech, SourceWave::dc(0.0), 0.02);
  // Input low -> PMOS pulls up: positive current into a grounded output.
  EXPECT_GT(driver.current(0.0, 0.0), 1e-5);
  // Near the held rail the current vanishes and conductance is restoring.
  EXPECT_NEAR(driver.current(kTech.vdd, 0.0), 0.0, 5e-5);
  EXPECT_LT(driver.conductance(kTech.vdd - 0.1, 0.0), 0.0);
  EXPECT_GT(driver.solves(), 0u);
}

TEST_F(IntegrationFixture, TransistorDriverTightensTableModel) {
  // The future-work extension: on a cluster where we can compare, the
  // on-demand transistor driver must agree with transistor-level SPICE at
  // least as well as the pre-characterized table (for the quiet victim
  // holder role, where quasi-static is exact).
  GlitchAnalyzer analyzer(*extractor_, *chars_);
  VictimSpec victim;
  victim.route = {600 * units::um, 0.0};
  victim.driver_cell = "INV_X2";
  victim.held_high = true;
  victim.receiver_cap = 10e-15;
  AggressorSpec agg;
  agg.route = {600 * units::um, 0.0};
  agg.driver_cell = "INV_X8";
  agg.rising = false;
  agg.input_slew = 0.1e-9;
  agg.receiver_cap = 10e-15;
  agg.run = {0, 0, 500 * units::um, 0.0, 0.0, 0.0};

  GlitchAnalysisOptions opt;
  opt.align_aggressors = false;
  opt.driver_model = DriverModelKind::kTransistor;
  const GlitchResult golden = analyzer.analyze_spice(victim, {agg}, opt);

  // Manually assemble the MOR run with the on-demand transistor drivers.
  RcNetwork net = extractor_->extract_cluster(
      {victim.route, agg.route}, {{0, 1, agg.run.overlap, 0.0, 0.0, 0.0}});
  net.add_capacitor(net.port_node(1), RcNetwork::kGround, victim.receiver_cap);
  net.add_capacitor(net.port_node(3), RcNetwork::kGround, agg.receiver_cap);
  // The golden circuit carries the driver cells' intrinsic output caps;
  // the memoryless transistor-DC driver needs them added to the network.
  net.add_capacitor(net.port_node(0), RcNetwork::kGround,
                    lib_->by_name("INV_X2").output_cap());
  net.add_capacitor(net.port_node(2), RcNetwork::kGround,
                    lib_->by_name("INV_X8").output_cap());
  for (std::size_t p = 0; p < net.port_count(); ++p)
    net.stamp_port_conductance(p, 1e-9);
  ReducedSimulator sim(sympvl_reduce(net));
  sim.set_termination(0, std::make_shared<TransistorDcDriver>(
                             lib_->by_name("INV_X2"), kTech, SourceWave::dc(0.0)));
  sim.set_termination(2, std::make_shared<TransistorDcDriver>(
                             lib_->by_name("INV_X8"), kTech,
                             SourceWave::ramp(0.0, kTech.vdd, 0.5e-9, 0.1e-9)));
  ReducedSimOptions ropt;
  ropt.tstop = 3e-9;
  ropt.dt = 2e-12;
  const ReducedSimResult res = sim.run(ropt);
  const double peak = res.port_voltages[1].peak_deviation();
  ASSERT_GT(std::fabs(golden.peak), 0.1);
  EXPECT_NEAR(peak / golden.peak, 1.0, 0.06);
}

TEST_F(IntegrationFixture, VerifierTimingRecalculation) {
  DspChipOptions chip_opt;
  chip_opt.net_count = 150;
  chip_opt.tracks = 10;
  const ChipDesign design = generate_dsp_chip(*lib_, chip_opt);

  ChipVerifier verifier(*extractor_, *chars_);
  VerifierOptions options;
  options.max_victims = 4;
  options.analyze_delay_change = true;
  options.glitch.align_aggressors = false;
  options.glitch.tstop = 3e-9;
  const VerificationReport report = verifier.verify(design, options);
  ASSERT_GE(report.findings.size(), 1u);
  std::size_t with_delays = 0;
  for (const auto& f : report.findings) {
    if (f.delay_decoupled <= 0.0) continue;
    ++with_delays;
    // Worst-case coupling can only slow the victim down (1 ps integration
    // tolerance for the short-net cases where both delays are ~10 ps).
    EXPECT_GE(f.delay_coupled, f.delay_decoupled - 1e-12) << "net " << f.net;
  }
  EXPECT_GE(with_delays, 1u);
}

TEST_F(IntegrationFixture, ExtractedClusterSurvivesDeckRoundTrip) {
  RcNetwork net = extractor_->extract_parallel3(300 * units::um);
  for (std::size_t p = 0; p < net.port_count(); ++p)
    net.stamp_port_conductance(p, 1e-3);
  Circuit ckt;
  std::vector<int> pins;
  for (std::size_t p = 0; p < net.port_count(); ++p)
    pins.push_back(ckt.add_node("p" + std::to_string(p)));
  net.export_to(ckt, pins);

  const std::string deck = write_spice_deck(ckt, "cluster");
  const Circuit back = parse_spice_deck(deck);
  EXPECT_EQ(back.resistors().size(), ckt.resistors().size());
  EXPECT_EQ(back.capacitors().size(), ckt.capacitors().size());
  double r_orig = 0.0, r_back = 0.0;
  for (const auto& r : ckt.resistors()) r_orig += r.ohms;
  for (const auto& r : back.resistors()) r_back += r.ohms;
  EXPECT_NEAR(r_back / r_orig, 1.0, 1e-9);
}

// Cross-engine parity sweep: MOR-with-table-model vs transistor SPICE for
// a matrix of victim cells and coupled lengths (a compressed Table-4). The
// cell is a std::string so the registered test names are stable.
class EngineParity
    : public IntegrationFixture,
      public ::testing::WithParamInterface<std::tuple<std::string, double>> {};

TEST_P(EngineParity, TableModelTracksTransistorReference) {
  const auto [cell, len_um] = GetParam();
  GlitchAnalyzer analyzer(*extractor_, *chars_);
  VictimSpec victim;
  victim.route = {len_um * units::um, 0.0};
  victim.driver_cell = cell;
  victim.held_high = false;
  victim.receiver_cap = 10e-15;
  AggressorSpec agg;
  agg.route = {len_um * units::um, 0.0};
  agg.driver_cell = "INV_X8";
  agg.rising = true;
  agg.input_slew = 0.1e-9;
  agg.receiver_cap = 10e-15;
  agg.run = {0, 0, 0.9 * len_um * units::um, 0.0, 0.0, 0.0};

  GlitchAnalysisOptions opt;
  opt.align_aggressors = false;
  opt.driver_model = DriverModelKind::kTransistor;
  const GlitchResult golden = analyzer.analyze_spice(victim, {agg}, opt);
  opt.driver_model = DriverModelKind::kNonlinearTable;
  const GlitchResult table = analyzer.analyze(victim, {agg}, opt);

  if (std::fabs(golden.peak) < 0.05) GTEST_SKIP() << "no measurable glitch";
  EXPECT_NEAR(table.peak / golden.peak, 1.0, 0.12)
      << cell << " @ " << len_um << "um";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineParity,
    ::testing::Combine(
        ::testing::Values(std::string("INV_X1"), std::string("INV_X8"),
                          std::string("NAND2_X2"), std::string("NOR2_X4"),
                          std::string("BUF_X4"), std::string("DFF_X2")),
        ::testing::Values(200.0, 1000.0, 3000.0)));

TEST_F(IntegrationFixture, FullFlowEndToEnd) {
  // The quickstart flow with assertions: generate -> prune -> analyze ->
  // classify, entirely through public APIs.
  DspChipOptions chip_opt;
  chip_opt.net_count = 120;
  chip_opt.tracks = 8;
  const ChipDesign design = generate_dsp_chip(*lib_, chip_opt);
  const auto summaries = chip_net_summaries(design, *extractor_, *chars_);
  const PruneResult pruned = prune_couplings(summaries, {});
  EXPECT_GT(pruned.stats.couplings_before, pruned.stats.couplings_after);

  ChipVerifier verifier(*extractor_, *chars_);
  VerifierOptions options;
  options.max_victims = 6;
  options.glitch.align_aggressors = true;
  const VerificationReport report = verifier.verify(design, options);
  EXPECT_GT(report.victims_analyzed, 0u);
  EXPECT_LE(report.violations, report.victims_analyzed);
  // Every analyzed victim carries a sane reduced order and nonneg time.
  for (const auto& f : report.findings) {
    EXPECT_GT(f.reduced_order, 0u);
    EXPECT_GE(f.cpu_seconds, 0.0);
    EXPECT_LE(f.peak_fraction, 1.5);
  }
}

}  // namespace
}  // namespace xtv
