// Figures 6 and 7: crosstalk-peak accuracy of the full methodology —
// MPVL + non-linear cell models — against transistor-level SPICE, on 101
// potential victims chosen among the latch inputs of the DSP design.
//
// Paper results (for peaks > 10% of Vdd, histogrammed; bounds quoted for
// peaks > 20% of Vdd): rising errors -6.9%..+7.2%, falling errors
// -6.1%..+10.5%; tighter bounds for larger peaks; ~25x CPU improvement.
// A negative error means SPICE is more pessimistic.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "chipgen/dsp_chip.h"
#include "core/verifier.h"
#include "util/stats.h"

using namespace xtv;

int main() {
  bench::Context ctx;
  DspChipOptions chip_opt;
  chip_opt.net_count = 1500;
  const ChipDesign design = generate_dsp_chip(ctx.library, chip_opt);
  {
    std::vector<std::string> cells;
    for (const auto& net : design.nets) cells.push_back(net.driver_cell);
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    ctx.warm_cells(cells);
  }
  const auto summaries = chip_net_summaries(design, ctx.extractor, ctx.chars);
  const PruneResult pruned = prune_couplings(summaries, {});

  ChipVerifier verifier(ctx.extractor, ctx.chars);
  GlitchAnalyzer analyzer(ctx.extractor, ctx.chars);
  const double vdd = ctx.tech.vdd;

  GlitchAnalysisOptions opt;
  opt.align_aggressors = false;
  opt.tstop = 3e-9;
  opt.dt = 4e-12;
  // The published rows step both engines at the fixed dt; one extra row
  // runs the reduced engine at the flow's default step tolerance.
  opt.lte_vtol = 0.0;
  const double adaptive_vtol = GlitchAnalysisOptions{}.lte_vtol;

  struct DirectionStats {
    Histogram hist{-15.0, 15.0, 12};
    SummaryStats err_all;      // peaks > 10% Vdd
    SummaryStats err_large;    // peaks > 20% Vdd
    SummaryStats adaptive_large;  // the same peaks, reduced engine adaptive
  };
  DirectionStats rising, falling;
  double mor_cpu = 0.0, spice_cpu = 0.0, adaptive_cpu = 0.0;
  std::size_t victims = 0;

  for (std::size_t v = 0; v < design.nets.size() && victims < 101; ++v) {
    if (!design.nets[v].latch_input) continue;
    if (pruned.retained[v].empty()) continue;
    auto [victim, aggressors] =
        verifier.build_victim_cluster(design, summaries, pruned, v);
    if (aggressors.empty()) continue;
    if (aggressors.size() > 6) aggressors.resize(6);
    ++victims;

    // The design windows have served their purpose (correlation/overlap
    // filtering in build_victim_cluster); for the accuracy measurement all
    // aggressors fire inside the simulated span so both engines resolve
    // the full peak.
    for (auto& agg : aggressors) agg.window = TimingWindow::of(0.4e-9, 0.6e-9);

    // Rising crosstalk: victim held low, aggressors rise; falling: mirror.
    for (bool rising_peak : {true, false}) {
      victim.held_high = !rising_peak;
      for (auto& agg : aggressors) agg.rising = rising_peak;

      opt.driver_model = DriverModelKind::kNonlinearTable;
      const GlitchResult mor = analyzer.analyze(victim, aggressors, opt);
      GlitchAnalysisOptions adaptive_opt = opt;
      adaptive_opt.lte_vtol = adaptive_vtol;
      const GlitchResult adaptive =
          analyzer.analyze(victim, aggressors, adaptive_opt);
      opt.driver_model = DriverModelKind::kTransistor;
      const GlitchResult gold = analyzer.analyze_spice(victim, aggressors, opt);
      mor_cpu += mor.cpu_seconds;
      spice_cpu += gold.cpu_seconds;
      adaptive_cpu += adaptive.cpu_seconds;

      const double peak_frac = std::fabs(gold.peak) / vdd;
      if (peak_frac < 0.10) continue;  // the figures only histogram >10% Vdd
      // Negative = SPICE more pessimistic (bigger golden peak).
      auto error_pct = [&](const GlitchResult& r) {
        return 100.0 * (std::fabs(r.peak) - std::fabs(gold.peak)) /
               std::fabs(gold.peak);
      };
      const double err = error_pct(mor);
      DirectionStats& stats = rising_peak ? rising : falling;
      stats.hist.add(err);
      stats.err_all.add(err);
      if (peak_frac > 0.20) {
        stats.err_large.add(err);
        stats.adaptive_large.add(error_pct(adaptive));
      }
    }
  }

  std::printf("== Figures 6/7: non-linear cell model + MPVL vs transistor-"
              "level SPICE, %zu latch-input victims ==\n", victims);
  std::printf("\n-- Figure 6: RISING crosstalk peak error (peaks > 10%% Vdd) --\n");
  std::printf("%s", rising.hist.to_ascii(40, 1).c_str());
  std::printf("all>10%%: %s\n", rising.err_all.to_string(2).c_str());
  std::printf(">20%% Vdd bounds: [%.2f%%, %.2f%%] (n=%zu)\n",
              rising.err_large.min(), rising.err_large.max(),
              rising.err_large.count());
  std::printf("\n-- Figure 7: FALLING crosstalk peak error (peaks > 10%% Vdd) --\n");
  std::printf("%s", falling.hist.to_ascii(40, 1).c_str());
  std::printf("all>10%%: %s\n", falling.err_all.to_string(2).c_str());
  std::printf(">20%% Vdd bounds: [%.2f%%, %.2f%%] (n=%zu)\n",
              falling.err_large.min(), falling.err_large.max(),
              falling.err_large.count());

  const double step_ps = opt.dt * 1e12;
  std::printf("\ncpu: SPICE (fixed %.0f ps) %.1f s, MPVL+nonlinear model "
              "(fixed %.0f ps) %.1f s -> speed-up %.1fx\n", step_ps, spice_cpu,
              step_ps, mor_cpu, spice_cpu / std::max(mor_cpu, 1e-12));
  std::printf("\nreduced adaptive vs golden fixed: MPVL+nonlinear model "
              "(adaptive %.0f mV, %.0f-%.0f ps) vs SPICE (fixed %.0f ps)\n",
              adaptive_vtol * 1e3, step_ps, 16 * step_ps, step_ps);
  std::printf("  >20%% Vdd bounds: rising [%.2f%%, %.2f%%], falling "
              "[%.2f%%, %.2f%%]\n", rising.adaptive_large.min(),
              rising.adaptive_large.max(), falling.adaptive_large.min(),
              falling.adaptive_large.max());
  std::printf("  cpu: SPICE %.1f s, MPVL+nonlinear model %.1f s -> speed-up "
              "%.1fx\n", spice_cpu, adaptive_cpu,
              spice_cpu / std::max(adaptive_cpu, 1e-12));

  // Shape criteria from the paper: a large victim population, small mean
  // error, and bounds for the >20%-of-Vdd peaks no looser than the whole
  // >10% population (the "tighter bounds are expected for larger values"
  // property). Absolute tail width depends on the aggressor cell mix; see
  // EXPERIMENTS.md for the measured-vs-paper discussion.
  auto width = [](const SummaryStats& s) {
    return std::max(std::fabs(s.min()), std::fabs(s.max()));
  };
  const bool pass = victims >= 90 && rising.err_large.count() > 0 &&
                    falling.err_large.count() > 0 &&
                    std::fabs(rising.err_all.mean()) < 15.0 &&
                    std::fabs(falling.err_all.mean()) < 15.0 &&
                    width(rising.err_large) <= width(rising.err_all) + 1e-9 &&
                    width(falling.err_large) <= width(falling.err_all) + 1e-9;
  std::printf("paper shape check — small mean error; >20%%-Vdd bounds no "
              "looser than the >10%% population: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
