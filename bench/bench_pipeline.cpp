// Staged-pipeline benchmark (DESIGN.md §11, §16): the reduced-model cache
// on its intended workload — a row-tiled DSP-class design where every
// standard-cell row repeats the same cluster pencils. Measures verify()
// with the cache off vs on (threads >= 4), the realized cache hit rate,
// the DenseMatrix allocations per victim, exact vs canonical cache keys
// on a load-skewed copy of the design, and journal identity across
// execution modes; writes BENCH_pipeline.json for the nightly trend job.
//
// Claims under test (the nightly gate):
//  - cache hit rate > 30% on the tiled design (each row past the first
//    should hit for nearly every victim);
//  - cached wall-clock >= 1.3x faster than no-cache on the same design;
//  - findings bit-identical between the two runs (the hit-reuse doctrine);
//  - on the load-skewed design (exact fingerprints never re-match across
//    rows) the canonical index hits at least as often as exact keys, with
//    every tolerant reuse gated by a certificate re-pass;
//  - merged journals are bit-identical across serial, process-sharded,
//    and torn-then-resumed runs (CPU time is the one per-run field).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "chipgen/dsp_chip.h"
#include "core/journal.h"
#include "core/verifier.h"
#include "util/workspace.h"

using namespace xtv;

namespace {

/// Bitwise comparison of the per-victim results of two reports.
bool findings_identical(const VerificationReport& a,
                        const VerificationReport& b) {
  if (a.findings.size() != b.findings.size()) return false;
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    const VictimFinding& x = a.findings[i];
    const VictimFinding& y = b.findings[i];
    if (x.net != y.net || std::memcmp(&x.peak, &y.peak, sizeof(x.peak)) != 0 ||
        x.status != y.status || x.retries != y.retries ||
        x.reduced_order != y.reduced_order || x.certified != y.certified ||
        std::memcmp(&x.cert_max_rel_err, &y.cert_max_rel_err,
                    sizeof(double)) != 0)
      return false;
  }
  return true;
}

/// Journal records re-encoded with the per-run CPU-time field zeroed, so
/// two runs' journals compare bit-exactly on everything deterministic.
std::vector<std::string> masked_records(const ResultJournal::LoadResult& j) {
  std::vector<std::string> out;
  for (JournalRecord rec : j.records) {
    rec.finding.cpu_seconds = 0.0;
    out.push_back(journal_encode(rec));
  }
  return out;
}

bool journals_identical(const std::string& a, const std::string& b) {
  const auto la = ResultJournal::load(a);
  const auto lb = ResultJournal::load(b);
  return la.has_header && lb.has_header && la.header_hash == lb.header_hash &&
         masked_records(la) == masked_records(lb);
}

/// Copies the journal keeping the header plus the first `keep` record
/// lines — a deterministic stand-in for a kill-9 between record batches.
void truncate_journal_copy(const std::string& src, const std::string& dst,
                           std::size_t keep) {
  std::ifstream in(src);
  std::ofstream out(dst, std::ios::trunc);
  std::string line;
  std::size_t records = 0;
  while (std::getline(in, line)) {
    const bool header = line.rfind("xtvjh", 0) == 0;
    if (!header && records++ >= keep) break;
    out << line << '\n';
  }
}

double hit_rate_of(const VerificationReport& r) {
  const std::size_t lookups = r.model_cache_hits + r.model_cache_misses;
  return lookups > 0 ? static_cast<double>(r.model_cache_hits +
                                           r.canonical_hits) /
                           static_cast<double>(lookups)
                     : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Staged pipeline: model cache ==\n\n");

  std::size_t net_count = 400;
  std::size_t rows = 4;
  std::size_t threads = 4;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--nets") == 0)
      net_count = static_cast<std::size_t>(std::atoi(argv[i + 1]));
    else if (std::strcmp(argv[i], "--rows") == 0)
      rows = static_cast<std::size_t>(std::atoi(argv[i + 1]));
    else if (std::strcmp(argv[i], "--threads") == 0)
      threads = static_cast<std::size_t>(std::atoi(argv[i + 1]));
  }

  bench::Context ctx;
  DspChipOptions chip_opt;
  chip_opt.net_count = net_count;
  chip_opt.tracks = 8 * rows;
  chip_opt.replicate_rows = rows;
  const ChipDesign design = generate_dsp_chip(ctx.library, chip_opt);
  ChipVerifier verifier(ctx.extractor, ctx.chars);

  VerifierOptions nocache;
  nocache.glitch.align_aggressors = false;
  nocache.glitch.tstop = 3e-9;
  nocache.certify = true;  // cache reuse also skips certification probes
  nocache.threads = threads;

  VerifierOptions cached = nocache;
  cached.model_cache_mb = 64.0;

  std::printf("design: %zu nets in %zu identical rows, %zu threads\n\n",
              design.nets.size(), rows, threads);

  // Warm-up pass characterizes the cells so both timed passes see
  // identical conditions.
  (void)verifier.verify(design, nocache);
  ctx.chars.save(bench::kCellCachePath);

  workspace::reset_stats();
  const VerificationReport r_off = verifier.verify(design, nocache);
  const workspace::Stats ws_off = workspace::stats();

  workspace::reset_stats();
  const VerificationReport r_on = verifier.verify(design, cached);
  const workspace::Stats ws_on = workspace::stats();

  const std::size_t lookups = r_on.model_cache_hits + r_on.model_cache_misses;
  const double hit_rate = hit_rate_of(r_on);
  const double speedup = r_on.wall_seconds > 0.0
                             ? r_off.wall_seconds / r_on.wall_seconds
                             : 0.0;
  const bool identical = findings_identical(r_off, r_on);
  const double victims =
      static_cast<double>(r_off.victims_eligible > 0 ? r_off.victims_eligible
                                                     : 1);

  std::printf("cache off : %8.3f s wall, %.1f s cpu\n", r_off.wall_seconds,
              r_off.total_cpu_seconds);
  std::printf("  DenseMatrix allocations: %zu (%.1f per victim)\n",
              ws_off.acquires, static_cast<double>(ws_off.acquires) / victims);
  std::printf("cache on  : %8.3f s wall, %.1f s cpu (%.2fx)\n",
              r_on.wall_seconds, r_on.total_cpu_seconds, speedup);
  std::printf("  model cache: %zu hits / %zu lookups (%.0f%% hit rate), "
              "%zu entries, %.1f MiB, %zu evictions\n",
              r_on.model_cache_hits, lookups, 100.0 * hit_rate,
              r_on.model_cache_entries,
              static_cast<double>(r_on.model_cache_bytes) / (1024.0 * 1024.0),
              r_on.model_cache_evictions);
  std::printf("  DenseMatrix allocations: %zu (%.1f per victim)\n",
              ws_on.acquires, static_cast<double>(ws_on.acquires) / victims);
  std::printf("findings bit-identical: %s\n", identical ? "yes" : "NO");

  // Exact vs canonical keys. Load-skewed replicas: every row's receiver
  // caps are jittered by ~1e-8 relative, so exact bit fingerprints never
  // re-match across rows while a canonical key at tol 1e-6 still collides
  // — the reuse then has to survive the certificate re-pass against each
  // requester's exact (G, C, B).
  DspChipOptions skew_opt = chip_opt;
  skew_opt.cluster_repeat_skew = 1e-8;
  const ChipDesign skewed = generate_dsp_chip(ctx.library, skew_opt);
  VerifierOptions exact;
  exact.glitch.align_aggressors = false;
  exact.glitch.tstop = 3e-9;
  exact.model_cache_mb = 64.0;
  VerifierOptions canon = exact;
  canon.canonical_cache = true;
  canon.canonical_cache_tol = 1e-6;
  const VerificationReport r_exact = verifier.verify(skewed, exact);
  const VerificationReport r_canon = verifier.verify(skewed, canon);
  const double rate_exact = hit_rate_of(r_exact);
  const double rate_canon = hit_rate_of(r_canon);
  std::printf("\nload-skewed design (skew 1e-8), serial:\n");
  std::printf("  exact keys     : %zu hits (%.0f%%)\n",
              r_exact.model_cache_hits, 100.0 * rate_exact);
  std::printf("  canonical keys : %zu exact + %zu certified canonical hits "
              "(%.0f%%), %zu cert rejects\n",
              r_canon.model_cache_hits, r_canon.canonical_hits,
              100.0 * rate_canon, r_canon.canonical_cert_rejects);

  // Journal identity: serial, process-sharded, and torn-then-resumed runs
  // must finalize bit-identical journals (CPU seconds masked).
  const std::string j_serial = "bench_pipeline_serial.journal";
  const std::string j_proc = "bench_pipeline_p4.journal";
  const std::string j_resume = "bench_pipeline_resume.journal";
  VerifierOptions jopt;
  jopt.glitch.align_aggressors = false;
  jopt.glitch.tstop = 3e-9;
  jopt.journal_path = j_serial;
  (void)verifier.verify(design, jopt);
  jopt.journal_path = j_proc;
  jopt.processes = 4;
  (void)verifier.verify(design, jopt);
  jopt.processes = 0;
  truncate_journal_copy(j_serial, j_resume,
                        ResultJournal::load(j_serial).records.size() / 2);
  jopt.journal_path = j_resume;
  jopt.resume = true;
  (void)verifier.verify(design, jopt);
  const bool j_ok = journals_identical(j_serial, j_proc) &&
                    journals_identical(j_serial, j_resume);
  std::printf("\njournals bit-identical (serial/processes/resumed): %s\n",
              j_ok ? "yes" : "NO");
  std::remove(j_serial.c_str());
  std::remove(j_proc.c_str());
  std::remove(j_resume.c_str());

  const bool targets_met = hit_rate > 0.30 && speedup >= 1.3 && identical &&
                           rate_canon >= rate_exact && j_ok;
  std::printf("\ntargets: hit rate > 30%% -> %s, speedup >= 1.3x -> %s, "
              "canonical rate >= exact rate -> %s\n",
              hit_rate > 0.30 ? "MET" : "MISSED",
              speedup >= 1.3 ? "MET" : "MISSED",
              rate_canon >= rate_exact ? "MET" : "MISSED");

  FILE* json = std::fopen("BENCH_pipeline.json", "w");
  if (json) {
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"nets\": %zu,\n", design.nets.size());
    std::fprintf(json, "  \"rows\": %zu,\n", rows);
    std::fprintf(json, "  \"threads\": %zu,\n", threads);
    std::fprintf(json, "  \"victims_eligible\": %zu,\n",
                 r_off.victims_eligible);
    std::fprintf(json, "  \"wall_s_cache_off\": %.6f,\n", r_off.wall_seconds);
    std::fprintf(json, "  \"wall_s_cache_on\": %.6f,\n", r_on.wall_seconds);
    std::fprintf(json, "  \"speedup\": %.4f,\n", speedup);
    std::fprintf(json, "  \"cache_hits\": %zu,\n", r_on.model_cache_hits);
    std::fprintf(json, "  \"cache_misses\": %zu,\n", r_on.model_cache_misses);
    std::fprintf(json, "  \"cache_hit_rate\": %.4f,\n", hit_rate);
    std::fprintf(json, "  \"cache_entries\": %zu,\n", r_on.model_cache_entries);
    std::fprintf(json, "  \"cache_bytes\": %zu,\n", r_on.model_cache_bytes);
    std::fprintf(json, "  \"cache_evictions\": %zu,\n",
                 r_on.model_cache_evictions);
    std::fprintf(json, "  \"workspace_acquires_per_victim\": %.3f,\n",
                 static_cast<double>(ws_on.acquires) / victims);
    std::fprintf(json, "  \"findings_identical\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(json, "  \"exact_hit_rate\": %.4f,\n", rate_exact);
    std::fprintf(json, "  \"canonical_hit_rate\": %.4f,\n", rate_canon);
    std::fprintf(json, "  \"canonical_hits\": %zu,\n", r_canon.canonical_hits);
    std::fprintf(json, "  \"canonical_cert_rejects\": %zu,\n",
                 r_canon.canonical_cert_rejects);
    std::fprintf(json, "  \"journals_identical\": %s,\n",
                 j_ok ? "true" : "false");
    std::fprintf(json, "  \"hit_rate_target\": 0.30,\n");
    std::fprintf(json, "  \"speedup_target\": 1.3,\n");
    std::fprintf(json, "  \"targets_met\": %s\n",
                 targets_met ? "true" : "false");
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_pipeline.json\n");
  }
  return identical && j_ok ? 0 : 1;
}
