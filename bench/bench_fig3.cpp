// Figure 3: accuracy of MPVL (reduced-order) vs SPICE on the crosstalk
// peaks of 113 coupled networks from the DSP design, with 2-12 aggressors
// each, assuming a linear drive resistance of 1 kOhm.
//
// Paper results: average |error| 0.24%, maximum 1.05%, average 15x
// speed-up; a negative error means MPVL overestimates the peak.
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

  // Generate the DSP-like design and pull its post-pruning clusters.
  DspChipOptions chip_opt;
  chip_opt.net_count = 1500;
  const ChipDesign design = generate_dsp_chip(ctx.library, chip_opt);

  // Warm every driver cell the design uses.
  {
    std::vector<std::string> cells;
    for (const auto& net : design.nets) cells.push_back(net.driver_cell);
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    ctx.warm_cells(cells);
  }

  const auto summaries = chip_net_summaries(design, ctx.extractor, ctx.chars);
  PruningOptions popt;
  const PruneResult pruned = prune_couplings(summaries, popt);
  std::printf("pruning: avg cluster %.1f -> %.2f nets (max %zu)\n",
              pruned.stats.avg_cluster_before, pruned.stats.avg_cluster_after,
              pruned.stats.max_cluster_after);

  ChipVerifier verifier(ctx.extractor, ctx.chars);
  GlitchAnalyzer analyzer(ctx.extractor, ctx.chars);

  GlitchAnalysisOptions opt;
  opt.driver_model = DriverModelKind::kFixedResistor;
  opt.fixed_resistance = 1e3;  // the paper's 1 kOhm linear drive
  opt.align_aggressors = false;
  opt.tstop = 3e-9;
  opt.dt = 4e-12;
  // The published rows step both engines at the fixed dt; one extra row
  // runs the reduced engine at the flow's default step tolerance.
  opt.lte_vtol = 0.0;
  const double adaptive_vtol = GlitchAnalysisOptions{}.lte_vtol;
  // Classic SPICE behavior: refactor the MNA matrix at every step (the
  // linear-circuit caching shortcut is an anachronism for this baseline).
  opt.spice_exploit_linearity = false;

  SummaryStats err_pct, err_adaptive;
  Histogram hist(-2.0, 2.0, 16);
  double mor_cpu = 0.0, spice_cpu = 0.0, adaptive_cpu = 0.0;
  std::size_t analyzed = 0;
  std::size_t min_aggs = 99, max_aggs = 0;

  for (std::size_t v = 0; v < design.nets.size() && analyzed < 113; ++v) {
    if (pruned.retained[v].size() < 2) continue;  // want 2-12 aggressors
    auto [victim, aggressors] =
        verifier.build_victim_cluster(design, summaries, pruned, v);
    if (aggressors.size() < 2) continue;
    if (aggressors.size() > 12) aggressors.resize(12);

    // Aggressive reduction (a single block iteration, order = port count):
    // this is the regime where the matrix-Padé approximation shows
    // sub-percent — but nonzero — peak errors, as in the paper's
    // distribution.
    opt.mor.max_order = 2 * (1 + aggressors.size());

    const GlitchResult mor = analyzer.analyze(victim, aggressors, opt);
    const GlitchResult spice = analyzer.analyze_spice(victim, aggressors, opt);
    GlitchAnalysisOptions adaptive_opt = opt;
    adaptive_opt.lte_vtol = adaptive_vtol;
    const GlitchResult adaptive = analyzer.analyze(victim, aggressors, adaptive_opt);
    if (std::fabs(spice.peak) < 0.02) continue;  // no measurable peak

    // Negative error = MPVL overestimates w.r.t. SPICE (paper convention).
    auto error_pct = [&](const GlitchResult& r) {
      return 100.0 * (std::fabs(spice.peak) - std::fabs(r.peak)) /
             std::fabs(spice.peak);
    };
    const double err = error_pct(mor);
    err_pct.add(err);
    hist.add(err);
    err_adaptive.add(error_pct(adaptive));
    mor_cpu += mor.cpu_seconds;
    spice_cpu += spice.cpu_seconds;
    adaptive_cpu += adaptive.cpu_seconds;
    min_aggs = std::min(min_aggs, aggressors.size());
    max_aggs = std::max(max_aggs, aggressors.size());
    ++analyzed;
  }

  std::printf("\n== Figure 3: MPVL vs SPICE crosstalk-peak error, %zu coupled "
              "networks (aggressors %zu-%zu), linear 1 kOhm drive ==\n\n",
              analyzed, min_aggs, max_aggs);
  std::printf("%s\n", hist.to_ascii(44).c_str());
  const double max_abs =
      std::max(std::fabs(err_pct.min()), std::fabs(err_pct.max()));
  std::printf("error %%: %s\n", err_pct.to_string(3).c_str());
  std::printf("max |error| %.3f%%\n", max_abs);
  const double step_ps = opt.dt * 1e12;
  std::printf("cpu: SPICE (fixed %.0f ps) %.2f s, MPVL (fixed %.0f ps) %.2f s "
              "-> speed-up %.1fx\n", step_ps, spice_cpu, step_ps, mor_cpu,
              spice_cpu / std::max(mor_cpu, 1e-12));
  std::printf("\nreduced adaptive vs golden fixed: MPVL (adaptive %.0f mV, "
              "%.0f-%.0f ps) vs SPICE (fixed %.0f ps)\n", adaptive_vtol * 1e3,
              step_ps, 16 * step_ps, step_ps);
  std::printf("  error %%: %s; max |error| %.3f%%\n",
              err_adaptive.to_string(3).c_str(),
              std::max(std::fabs(err_adaptive.min()), std::fabs(err_adaptive.max())));
  std::printf("  cpu: SPICE %.2f s, MPVL %.2f s -> speed-up %.1fx\n", spice_cpu,
              adaptive_cpu, spice_cpu / std::max(adaptive_cpu, 1e-12));
  const bool pass = analyzed >= 100 && max_abs < 5.0;
  std::printf("paper shape check — sub-percent-class engine agreement on "
              ">=100 networks: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
