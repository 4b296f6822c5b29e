// Tests for the synthetic DSP design generator and the end-to-end chip
// verification flow (pruning -> clusters -> MOR glitch analysis).
#include <gtest/gtest.h>

#include <set>

#include "chipgen/dsp_chip.h"
#include "core/verifier.h"
#include "util/units.h"

namespace xtv {
namespace {

const Technology kTech = Technology::default_250nm();

DspChipOptions small_options() {
  DspChipOptions opt;
  opt.net_count = 200;
  opt.tracks = 16;
  opt.bus_count = 4;
  return opt;
}

TEST(DspChip, DeterministicInSeed) {
  CellLibrary lib(kTech);
  const ChipDesign a = generate_dsp_chip(lib, small_options());
  const ChipDesign b = generate_dsp_chip(lib, small_options());
  ASSERT_EQ(a.nets.size(), b.nets.size());
  ASSERT_EQ(a.couplings.size(), b.couplings.size());
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.nets[i].route.length, b.nets[i].route.length);
    EXPECT_EQ(a.nets[i].driver_cell, b.nets[i].driver_cell);
  }
}

TEST(DspChip, DifferentSeedsDiffer) {
  CellLibrary lib(kTech);
  DspChipOptions o1 = small_options();
  DspChipOptions o2 = small_options();
  o2.seed = 7777;
  const ChipDesign a = generate_dsp_chip(lib, o1);
  const ChipDesign b = generate_dsp_chip(lib, o2);
  int diffs = 0;
  for (std::size_t i = 0; i < a.nets.size(); ++i)
    if (a.nets[i].route.length != b.nets[i].route.length) ++diffs;
  EXPECT_GT(diffs, 100);
}

TEST(DspChip, StructuralInventory) {
  CellLibrary lib(kTech);
  const ChipDesign d = generate_dsp_chip(lib, small_options());
  EXPECT_EQ(d.nets.size(), 200u);
  EXPECT_GT(d.couplings.size(), 100u);  // crowded channels couple a lot

  std::size_t buses = 0, latches = 0;
  for (const auto& net : d.nets) {
    if (!net.bus_drivers.empty()) ++buses;
    if (net.latch_input) ++latches;
    EXPECT_GE(net.route.length, 50e-6);
    EXPECT_LE(net.route.length, 1.2e-3);
    EXPECT_GT(net.receiver_cap, 0.0);
    EXPECT_TRUE(net.window.valid);
    EXPECT_GE(lib.find(net.driver_cell), 0) << net.driver_cell;
  }
  EXPECT_EQ(buses, 4u);
  EXPECT_GT(latches, 10u);
  EXPECT_FALSE(d.complementary_pairs.empty());
}

TEST(DspChip, BusesUseStrongestTribufDriver) {
  CellLibrary lib(kTech);
  const ChipDesign d = generate_dsp_chip(lib, small_options());
  for (const auto& net : d.nets) {
    if (net.bus_drivers.empty()) continue;
    // The analysis driver must be the strongest of the bus drivers.
    double strongest = 0.0;
    for (const auto& name : net.bus_drivers)
      strongest = std::max(strongest, lib.by_name(name).drive());
    EXPECT_DOUBLE_EQ(lib.by_name(net.driver_cell).drive(), strongest);
    EXPECT_EQ(lib.by_name(net.driver_cell).family(), CellFamily::kTribuf);
  }
}

TEST(DspChip, CouplingsHaveValidGeometry) {
  CellLibrary lib(kTech);
  const ChipDesign d = generate_dsp_chip(lib, small_options());
  for (const auto& c : d.couplings) {
    ASSERT_LT(c.a, d.nets.size());
    ASSERT_LT(c.b, d.nets.size());
    EXPECT_NE(c.a, c.b);
    EXPECT_GT(c.overlap, 0.0);
    EXPECT_GT(c.spacing, 0.0);
    // Overlap cannot exceed either net's length.
    EXPECT_LE(c.overlap, d.nets[c.a].route.length + 1e-12);
    EXPECT_LE(c.overlap, d.nets[c.b].route.length + 1e-12);
    // Offsets keep the window inside the nets.
    EXPECT_LE(c.offset_a + c.overlap, d.nets[c.a].route.length + 1e-9);
    EXPECT_LE(c.offset_b + c.overlap, d.nets[c.b].route.length + 1e-9);
  }
}

TEST(DspChip, SummariesMatchDatabase) {
  CellLibrary lib(kTech);
  CharacterizedLibrary chars(lib);
  Extractor ex(kTech);
  const ChipDesign d = generate_dsp_chip(lib, small_options());
  const auto summaries = chip_net_summaries(d, ex, chars);
  ASSERT_EQ(summaries.size(), d.nets.size());
  std::size_t coupling_entries = 0;
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    EXPECT_EQ(summaries[i].id, i);
    EXPECT_GT(summaries[i].ground_cap, 0.0);
    EXPECT_GT(summaries[i].driver_resistance, 0.0);
    coupling_entries += summaries[i].couplings.size();
  }
  EXPECT_EQ(coupling_entries, 2 * d.couplings.size());  // both directions
}

TEST(DspChip, PruningShrinksClustersOnChip) {
  // The paper's §3 claim in miniature: dense pre-pruning clusters, small
  // post-pruning ones.
  CellLibrary lib(kTech);
  CharacterizedLibrary chars(lib);
  Extractor ex(kTech);
  DspChipOptions opt = small_options();
  opt.net_count = 600;
  opt.tracks = 12;  // crowd the channels
  const ChipDesign d = generate_dsp_chip(lib, opt);
  const auto summaries = chip_net_summaries(d, ex, chars);
  const PruneResult pruned = prune_couplings(summaries, {});
  EXPECT_GT(pruned.stats.avg_cluster_before, 20.0);
  EXPECT_LT(pruned.stats.avg_cluster_after, 8.0);
  EXPECT_GT(pruned.stats.avg_cluster_after, 1.5);
}

TEST(ChipVerifier, EndToEndFlowProducesFindings) {
  CellLibrary lib(kTech);
  CharacterizeOptions copt;
  copt.iv_grid = 9;
  CharacterizedLibrary chars(lib, copt);
  Extractor ex(kTech);
  const ChipDesign d = generate_dsp_chip(lib, small_options());

  ChipVerifier verifier(ex, chars);
  VerifierOptions vopt;
  vopt.glitch.align_aggressors = false;  // keep the test fast
  vopt.glitch.tstop = 3e-9;
  const VerificationReport report = verifier.verify(d, vopt);

  ASSERT_GT(report.findings.size(), 0u);
  EXPECT_EQ(report.victims_analyzed, report.findings.size());
  for (const auto& f : report.findings) {
    EXPECT_GT(f.aggressors_analyzed, 0u);
    EXPECT_GT(f.reduced_order, 0u);
    EXPECT_GE(f.peak_fraction, 0.0);
    // Victim held high: glitches pull down (or stay ~0).
    EXPECT_LE(f.peak, 1e-6);
  }
  EXPECT_FALSE(report.to_string().empty());
}

TEST(ChipVerifier, WindowFilteringDropsDisjointAggressors) {
  CellLibrary lib(kTech);
  CharacterizedLibrary chars(lib);
  Extractor ex(kTech);
  ChipDesign d = generate_dsp_chip(lib, small_options());
  // Force every net's window to be disjoint from net 0's.
  d.nets[0].window = TimingWindow::of(0.0, 0.1e-9);
  for (std::size_t i = 1; i < d.nets.size(); ++i)
    d.nets[i].window = TimingWindow::of(3e-9, 4e-9);

  const auto summaries = chip_net_summaries(d, ex, chars);
  const PruneResult pruned = prune_couplings(summaries, {});
  if (pruned.retained[0].empty()) GTEST_SKIP() << "net 0 kept no aggressors";

  ChipVerifier verifier(ex, chars);
  VictimFinding acct;
  const auto [victim, aggressors] =
      verifier.build_victim_cluster(d, summaries, pruned, 0, &acct);
  EXPECT_TRUE(aggressors.empty());
  EXPECT_EQ(acct.aggressors_dropped_by_window, pruned.retained[0].size());
}


TEST(DspChipOptions, NoBusesAndSingleTrackStillGenerate) {
  CellLibrary lib(kTech);
  DspChipOptions opt;
  opt.net_count = 40;
  opt.tracks = 1;     // everything on one track: no lateral neighbors
  opt.bus_count = 0;
  const ChipDesign d = generate_dsp_chip(lib, opt);
  EXPECT_EQ(d.nets.size(), 40u);
  EXPECT_TRUE(d.couplings.empty());  // gap >= 1 tracks needs >= 2 tracks
  for (const auto& net : d.nets) EXPECT_TRUE(net.bus_drivers.empty());
}

TEST(DspChipOptions, ManyBusesClampToNetCount) {
  CellLibrary lib(kTech);
  DspChipOptions opt;
  opt.net_count = 30;
  opt.tracks = 4;
  opt.bus_count = 100;  // more than nets: must clamp, not crash
  const ChipDesign d = generate_dsp_chip(lib, opt);
  std::size_t buses = 0;
  for (const auto& net : d.nets)
    if (!net.bus_drivers.empty()) ++buses;
  EXPECT_EQ(buses, 30u);
}

TEST(ExtractorVariants, WideWireLowersRRaisesC) {
  Extractor ex(kTech);
  const NetRoute narrow{500e-6, 0.0};
  const NetRoute wide{500e-6, 3 * kTech.min_width};
  EXPECT_LT(ex.route_resistance(wide), ex.route_resistance(narrow));
  EXPECT_GT(ex.route_ground_cap(wide), ex.route_ground_cap(narrow));
}

TEST(ExtractorVariants, SegmentLengthControlsGranularity) {
  Extractor coarse(kTech, 100e-6);
  Extractor fine(kTech, 10e-6);
  const NetRoute route{400e-6, 0.0};
  EXPECT_GT(fine.extract_net(route).node_count(),
            coarse.extract_net(route).node_count());
  EXPECT_THROW(Extractor(kTech, 0.0), std::runtime_error);
}

}  // namespace
}  // namespace xtv
