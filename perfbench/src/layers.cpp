// Set-up, untimed verify() runs, the accuracy pass and the traced
// per-layer run of the audit workloads (perfbench/README.md).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <fstream>
#include <mutex>
#include <random>

#include "bench.h"
#include "core/glitch_analyzer.h"
#include "core/pipeline.h"
#include "mor/model_cache.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace xtv;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

}  // namespace

double process_cpu_s(bool children) {
  rusage ru{};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

double peak_rss_mib(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

namespace {

/// Mean thread CPU time of one probe_kernel() on a 4-vCPU Xeon VM with
/// the host at its faster speed; probe_speed's factor is relative to it.
constexpr double kReferenceProbeS = 0.5e-3;

/// The speed factor for a measured mean kernel time, never above 1. For
/// tens of minutes at a time the kernel can run up to 35% faster than the
/// reference while verify() runs no faster than on the reference host, so
/// a factor above 1 would inflate scaled times by up to 25%; the cap
/// keeps those runs within about 5% of the others.
double speed_factor(double mean_probe_s) {
  return std::min(1.0, kReferenceProbeS / mean_probe_s);
}

/// Gaussian elimination on a fixed 40x40 matrix, repeated, then a pass of
/// exp/log1p over the result: floating-point work like the verifier's
/// inner loops, on the stack (12.8 KB), with no allocation or lock.
double probe_kernel() {
  constexpr int n = 40;
  std::array<double, n * n> a;
  double sink = 0.0;
  for (int rep = 0; rep < 30; ++rep) {
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) a[i * n + j] = i == j ? n : 1.0 / (1 + i + j);
    for (int k = 0; k < n; ++k)
      for (int i = k + 1; i < n; ++i) {
        const double l = a[i * n + k] / a[k * n + k];
        for (int j = k; j < n; ++j) a[i * n + j] -= l * a[k * n + j];
      }
    for (int i = 0; i < n * n; i += 7) sink += std::exp(-1e-3 * a[i]) + std::log1p(std::fabs(a[i]));
  }
  return sink;
}

}  // namespace

double probe_speed(std::size_t threads) {
  constexpr int kRuns = 7;  // median of 7: one preempted kernel does not count
  std::vector<double> per_thread(std::max<std::size_t>(threads, 1), 0.0);
  auto probe = [&per_thread](std::size_t t) {
    volatile double sink = 0.0;
    std::vector<double> s;
    for (int i = 0; i < kRuns; ++i) {
      const double c0 = thread_cpu_s();
      sink = sink + probe_kernel();
      s.push_back(thread_cpu_s() - c0);
    }
    per_thread[t] = median(std::move(s));
  };
  std::vector<std::thread> others;
  for (std::size_t t = 1; t < per_thread.size(); ++t) others.emplace_back(probe, t);
  probe(0);
  for (std::thread& t : others) t.join();
  double sum = 0.0;
  for (double s : per_thread) sum += s;
  return speed_factor(sum / static_cast<double>(per_thread.size()));
}

std::size_t Libs::missing_models() const {
  std::size_t missing = 0;
  for (std::size_t i = 0; i < library.size(); ++i)
    if (!chars.has_model(library.at(i).name())) ++missing;
  return missing;
}

Setup make_setup(const std::string& cell_cache, const DspChipOptions& chip) {
  Setup s;
  const double t0 = now_s();
  s.libs = std::make_unique<Libs>();
  s.models_loaded = s.libs->chars.load(cell_cache);
  const double t1 = now_s();
  s.design = generate_dsp_chip(s.libs->library, chip);
  const double t2 = now_s();
  s.load_s = t1 - t0;
  s.generate_s = t2 - t1;
  s.total_s = t2 - t0;
  return s;
}

double warm_cell_cache(const std::string& cell_cache) {
  Libs libs;
  libs.chars.load(cell_cache);
  if (libs.missing_models() == 0) return 0.0;
  const double t0 = now_s();
  for (std::size_t i = 0; i < libs.library.size(); ++i)
    libs.chars.model(libs.library.at(i).name());
  const double spent = now_s() - t0;
  libs.chars.save(cell_cache);
  return spent;
}

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

DesignJob design_job(const Workload& w, std::uint64_t seed, std::size_t k) {
  DesignJob job;
  const std::uint64_t reference = job.chip.seed;
  if (k != 0) {
    // Nonzero: a job spec reads chip_seed=0 as "generator default".
    const std::uint64_t s = 1 + (mix64(seed * 1000003ull + k) & 0x7fffffffull);
    job.chip.seed = s == reference ? s + 1 : s;
  }
  job.chip.net_count = w.nets;
  job.options.glitch_threshold = 0.10;
  job.options.glitch.align_aggressors = true;
  job.options.glitch.tstop = 4e-9;
  job.options.model_cache_mb = 64.0;
  job.options.threads = w.threads;
  return job;
}

VerifyRun run_verify(Libs& libs, const ChipDesign& design,
                     const VerifierOptions& options) {
  VerifyRun run;
  std::mutex mutex;
  VerifierOptions o = options;
  o.on_record = [&](const JournalRecord& rec) {
    std::lock_guard<std::mutex> lock(mutex);
    run.records.insert_or_assign(rec.finding.net, rec);
  };
  ChipVerifier verifier(libs.extractor, libs.chars);
  const std::size_t missing_before = libs.missing_models();
  workspace::reset_stats();
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  run.report = verifier.verify(design, o);
  run.wall_s = now_s() - t0;
  run.cpu_s = process_cpu_s() - cpu0;
  run.workspace = workspace::stats();
  run.fresh_models = missing_before - libs.missing_models();
  run.digest = findings_digest(run.records);
  for (const auto& [net, rec] : run.records)
    if (rec.screened || clean_status(rec.finding.status)) ++run.clean;
  return run;
}

bool report_reconciles(const VerifyRun& run) {
  const VerificationReport& r = run.report;
  return r.victims_eligible == r.victims_analyzed + r.victims_screened_out +
                                   r.victims_fallback + r.victims_failed &&
         r.victims_eligible == run.records.size();
}

std::vector<std::size_t> eligible_victims(Libs& libs, const ChipDesign& design,
                                          const VerifierOptions& options) {
  const auto summaries = chip_net_summaries(design, libs.extractor, libs.chars);
  const PruneResult pruned = prune_couplings(summaries, options.prune);
  ChipVerifier verifier(libs.extractor, libs.chars);
  std::vector<std::size_t> out;
  for (std::size_t v = 0; v < design.nets.size(); ++v) {
    if (pruned.retained[v].empty()) continue;
    if (options.latch_inputs_only && !design.nets[v].latch_input) continue;
    if (!verifier.build_victim_cluster(design, summaries, pruned, v).second.empty())
      out.push_back(v);
  }
  return out;
}

// --- accuracy pass -------------------------------------------------------

Accuracy accuracy_pass(Libs& libs, const ChipDesign& design,
                       const VerifierOptions& options, const Records& records,
                       std::uint64_t sample_seed) {
  constexpr std::size_t kWanted = 24;     // errors kept per pass
  constexpr std::size_t kMaxGolden = 36;  // golden simulations at most
  const double vdd = libs.extractor.tech().vdd;

  // Candidates: clean MOR findings whose flow peak is near or above the
  // 10% band (a golden peak above 10% Vdd is what the paper histograms),
  // visited in a seeded order.
  std::vector<std::size_t> pool;
  for (const auto& [net, rec] : records)
    if (!rec.screened && clean_status(rec.finding.status) &&
        rec.finding.peak_fraction > 0.08)
      pool.push_back(net);
  std::mt19937_64 rng(sample_seed);
  for (std::size_t i = pool.size(); i > 1; --i)
    std::swap(pool[i - 1], pool[rng() % i]);

  const auto summaries = chip_net_summaries(design, libs.extractor, libs.chars);
  const PruneResult pruned = prune_couplings(summaries, options.prune);
  ChipVerifier verifier(libs.extractor, libs.chars);
  GlitchAnalyzer analyzer(libs.extractor, libs.chars);
  GlitchAnalysisOptions golden = options.glitch;
  golden.driver_model = DriverModelKind::kTransistor;

  Accuracy acc;
  for (std::size_t net : pool) {
    if (acc.err_pct.size() >= kWanted || acc.golden_runs >= kMaxGolden) break;
    auto [victim, aggressors] =
        verifier.build_victim_cluster(design, summaries, pruned, net);
    if (aggressors.empty()) continue;
    const double t0 = now_s();
    const GlitchResult g = analyzer.analyze_spice(victim, aggressors, golden);
    acc.golden_s += now_s() - t0;
    ++acc.golden_runs;
    if (!std::isfinite(g.peak) || std::fabs(g.peak) <= 0.10 * vdd) continue;
    const double flow = records.at(net).finding.peak;
    acc.err_pct.push_back(100.0 * std::fabs(flow - g.peak) / std::fabs(g.peak));
  }
  return acc;
}

// --- traced run ------------------------------------------------------------

namespace {

constexpr std::size_t kStages = 8;  // PipelineStage::kBuildCluster .. kBound
constexpr std::array<const char*, kStages> kStageNames = {
    "build_cluster", "noise_screen", "reduce",  "simulate_reduced",
    "full_sim",      "certify",      "audit",   "bound"};

/// Spans of the victim a worker thread is running. stage_trace fires on
/// that thread at every stage entry; each stage span runs from one
/// callback to the next, or to run()'s return.
struct VictimTrace {
  std::vector<Span> spans;   ///< [0] = victim span, then stage spans
  std::vector<int> stage_of; ///< stage index per span (-1 = victim)
  double stage_cpu0 = 0.0;

  void open_stage(int stage, std::size_t victim) {
    close_stage();
    Span s;
    s.name = kStageNames[static_cast<std::size_t>(stage)];
    s.start = now_s();
    s.parent = 0;
    s.victim = victim;
    spans.push_back(s);
    stage_of.push_back(stage);
    stage_cpu0 = thread_cpu_s();
  }
  void close_stage() {
    if (spans.size() <= 1 || spans.back().end > 0.0) return;
    spans.back().end = now_s();
    spans.back().cpu = thread_cpu_s() - stage_cpu0;
  }
};

thread_local VictimTrace* tl_trace = nullptr;

}  // namespace

bool trace_design(Libs& libs, const ChipDesign& design,
                  const VerifierOptions& options, const VerifyRun& untraced,
                  bool split_alignment, TraceLedger* ledger, std::string* error) {
  TraceLedger& L = *ledger;
  const double t_start = now_s();

  // Pipeline set-up, built exactly as ChipVerifier::Prepared builds it.
  double t0 = now_s();
  const auto summaries = chip_net_summaries(design, libs.extractor, libs.chars);
  L.summaries_s += now_s() - t0;
  t0 = now_s();
  const PruneResult pruned = prune_couplings(summaries, options.prune);
  L.prune_s += now_s() - t0;
  ChipVerifier verifier(libs.extractor, libs.chars);
  GlitchAnalyzer analyzer(libs.extractor, libs.chars);
  std::unique_ptr<ModelCache> cache;
  if (options.model_cache_mb > 0.0)
    cache = std::make_unique<ModelCache>(
        static_cast<std::size_t>(options.model_cache_mb * 1024.0 * 1024.0));
  PipelineContext ctx;
  ctx.verifier = &verifier;
  ctx.extractor = &libs.extractor;
  ctx.chars = &libs.chars;
  ctx.analyzer = &analyzer;
  ctx.design = &design;
  ctx.summaries = &summaries;
  ctx.pruned = &pruned;
  ctx.options = &options;
  ctx.model_cache = cache.get();
  ctx.stage_trace = [](std::size_t victim, PipelineStage stage) {
    const int s = static_cast<int>(stage);
    if (tl_trace && s >= 0 && s < static_cast<int>(kStages))
      tl_trace->open_stage(s, victim);
  };
  const VictimPipeline pipeline(ctx);

  std::vector<std::size_t> work;
  for (std::size_t v = 0; v < design.nets.size(); ++v) {
    if (pruned.retained[v].empty()) continue;
    if (options.latch_inputs_only && !design.nets[v].latch_input) continue;
    work.push_back(v);
    L.retained += pruned.retained[v].size();
  }
  L.candidates += work.size();

  Records records;
  std::mutex mutex;
  auto run_one = [&](std::size_t v) {
    VictimTrace trace;
    Span victim_span;
    victim_span.name = "victim";
    victim_span.victim = v;
    victim_span.start = now_s();
    const double cpu0 = thread_cpu_s();
    trace.spans.push_back(victim_span);
    trace.stage_of.push_back(-1);
    tl_trace = &trace;
    std::optional<JournalRecord> rec = pipeline.run(v, /*shed=*/false);
    tl_trace = nullptr;
    trace.close_stage();
    trace.spans[0].end = now_s();
    trace.spans[0].cpu = thread_cpu_s() - cpu0;
    std::lock_guard<std::mutex> lock(mutex);
    const long base = static_cast<long>(L.spans.size());
    for (std::size_t i = 0; i < trace.spans.size(); ++i) {
      Span s = trace.spans[i];
      if (s.parent >= 0) s.parent += base;
      L.spans.push_back(std::move(s));
      L.span_stage.push_back(trace.stage_of[i]);
    }
    if (rec) records.insert_or_assign(v, std::move(*rec));
  };
  if (options.threads <= 1) {
    for (std::size_t v : work) run_one(v);
  } else {
    // verify()'s threaded order: smallest clusters first.
    std::vector<std::size_t> order = work;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return pruned.retained[a].size() < pruned.retained[b].size();
    });
    ThreadPool pool(options.threads);
    pool.parallel_for(order.size(), [&](std::size_t i) { run_one(order[i]); });
  }
  L.traced_wall_s += now_s() - t_start;
  L.untraced_wall_s += untraced.wall_s;

  if (findings_digest(records) != untraced.digest) {
    *error = "traced replay digest differs from the timed verify() digest";
    return false;
  }
  if (!split_alignment) return true;

  // Alignment split: prepare() with alignment off, then on, on the same
  // clusters (serially, on a fresh cache, as rung 0 of the pipeline runs
  // it). The difference is the probe time.
  ModelCache probe_cache(static_cast<std::size_t>(options.model_cache_mb * 1024.0 * 1024.0));
  GlitchAnalysisOptions on = options.glitch;
  on.align_aggressors = true;
  on.model_cache = options.model_cache_mb > 0.0 ? &probe_cache : nullptr;
  GlitchAnalysisOptions off = on;
  off.align_aggressors = false;
  for (std::size_t v : work) {
    auto [victim, aggressors] = verifier.build_victim_cluster(design, summaries, pruned, v);
    if (aggressors.empty()) continue;
    double a = now_s();
    analyzer.prepare(victim, aggressors, off);
    L.prepare_unaligned_s += now_s() - a;
    a = now_s();
    analyzer.prepare(victim, aggressors, on);
    L.prepare_aligned_s += now_s() - a;
    if (aggressors.size() > 1) L.probes += aggressors.size();
  }
  return true;
}

void trace_metrics(const TraceLedger& L, Metrics* out) {
  Metrics& m = *out;
  const std::vector<double> self = span_self_times(L.spans);
  std::array<double, kStages> st_self{}, st_cpu{};
  std::array<std::size_t, kStages> st_entries{};
  std::vector<double> victim_ms;
  double victim_total = 0.0, stage_total = 0.0;
  for (std::size_t i = 0; i < L.spans.size(); ++i) {
    const double dur = L.spans[i].end - L.spans[i].start;
    if (L.span_stage[i] < 0) {
      victim_ms.push_back(1e3 * dur);
      victim_total += dur;
    } else {
      const auto s = static_cast<std::size_t>(L.span_stage[i]);
      st_self[s] += self[i];
      st_cpu[s] += L.spans[i].cpu;
      ++st_entries[s];
      stage_total += self[i];
    }
  }
  for (std::size_t s = 0; s < kStages; ++s) {
    const std::string p = std::string("stage.") + kStageNames[s];
    m[p + ".self_s"] = {st_self[s], "s"};
    m[p + ".cpu_s"] = {st_cpu[s], "s"};
    m[p + ".entries"] = {static_cast<double>(st_entries[s]), "count"};
  }
  m["stage.coverage"] = {victim_total > 0.0 ? stage_total / victim_total : 0.0, "ratio"};
  m["victim_ms_p50"] = {quantile(victim_ms, 0.50), "ms"};
  m["victim_ms_p98"] = {quantile(victim_ms, 0.98), "ms"};

  m["prune.summaries_s"] = {L.summaries_s, "s"};
  m["prune.prune_s"] = {L.prune_s, "s"};
  m["prune.candidates"] = {static_cast<double>(L.candidates), "count"};
  m["prune.retained_per_victim"] = {
      L.candidates ? static_cast<double>(L.retained) / static_cast<double>(L.candidates) : 0.0,
      "count"};
  m["trace.overhead_ratio"] = {L.traced_wall_s / L.untraced_wall_s, "ratio"};
  m["glitch.extract_s"] = {L.prepare_unaligned_s, "s"};
  m["glitch.align_probe_s"] = {std::max(0.0, L.prepare_aligned_s - L.prepare_unaligned_s), "s"};
  m["glitch.align_probes"] = {static_cast<double>(L.probes), "count"};
  std::printf("trace: %zu victim spans, stage coverage %.4f, overhead ratio %.4f\n",
              victim_ms.size(), victim_total > 0.0 ? stage_total / victim_total : 0.0,
              L.traced_wall_s / L.untraced_wall_s);
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  f << "id\tparent\tname\tvictim\tstart_s\tend_s\tcpu_s\n";
  f.precision(9);
  const double t0 = spans.empty() ? 0.0 : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << i << '\t' << s.parent << '\t' << s.name << '\t' << s.victim << '\t'
      << s.start - t0 << '\t' << s.end - t0 << '\t' << s.cpu << '\n';
  }
}

void report_layers(const std::vector<VerifyRun>& runs, std::size_t threads,
                   Metrics* out) {
  Metrics& m = *out;
  double hits = 0, misses = 0, insertions = 0, evictions = 0, bytes = 0;
  double canonical_hits = 0, canonical_rejects = 0, certified = 0, escalations = 0;
  double accuracy_bound = 0, batched = 0, lane_fallbacks = 0;
  double order_sum = 0, order_n = 0, order_max = 0;
  double cpu = 0, wall = 0, victim_cpu = 0, victims = 0, acquires = 0, pool_hits = 0;
  for (const VerifyRun& run : runs) {
    const VerificationReport& r = run.report;
    hits += static_cast<double>(r.model_cache_hits);
    misses += static_cast<double>(r.model_cache_misses);
    insertions += static_cast<double>(r.model_cache_insertions);
    evictions += static_cast<double>(r.model_cache_evictions);
    bytes += static_cast<double>(r.model_cache_bytes);
    canonical_hits += static_cast<double>(r.canonical_hits);
    canonical_rejects += static_cast<double>(r.canonical_cert_rejects);
    certified += static_cast<double>(r.victims_certified);
    escalations += static_cast<double>(r.order_escalations);
    accuracy_bound += static_cast<double>(r.victims_accuracy_bound);
    batched += static_cast<double>(r.batched_victims);
    lane_fallbacks += static_cast<double>(r.batch_lane_fallbacks);
    for (const VictimFinding& f : r.findings) {
      order_sum += static_cast<double>(f.reduced_order);
      order_max = std::max(order_max, static_cast<double>(f.reduced_order));
      ++order_n;
    }
    cpu += run.cpu_s;
    wall += run.wall_s;
    victim_cpu += r.total_cpu_seconds;
    victims += static_cast<double>(r.victims_eligible);
    acquires += static_cast<double>(run.workspace.acquires);
    pool_hits += static_cast<double>(run.workspace.pool_hits);
  }
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  m["cache.lookups"] = {hits + misses, "count"};
  m["cache.hits"] = {hits, "count"};
  m["cache.hit_ratio"] = {ratio(hits, hits + misses), "ratio"};
  m["cache.insertions"] = {insertions, "count"};
  m["cache.evictions"] = {evictions, "count"};
  m["cache.bytes_mib"] = {bytes / (1024.0 * 1024.0), "MiB"};
  m["cache.canonical_hits"] = {canonical_hits, "count"};
  m["cache.canonical_cert_rejects"] = {canonical_rejects, "count"};
  m["certify.certified"] = {certified, "count"};
  m["certify.escalations"] = {escalations, "count"};
  m["certify.accuracy_bound"] = {accuracy_bound, "count"};
  m["mor.order_mean"] = {ratio(order_sum, order_n), "count"};
  m["mor.order_max"] = {order_max, "count"};
  m["batch.batched_victims"] = {batched, "count"};
  m["batch.lane_fallbacks"] = {lane_fallbacks, "count"};
  m["pool.utilization"] = {
      ratio(cpu, static_cast<double>(std::max<std::size_t>(threads, 1)) * wall), "ratio"};
  m["verifier.cpu_accounted_ratio"] = {ratio(victim_cpu, cpu), "ratio"};
  m["workspace.acquires_per_victim"] = {ratio(acquires, victims), "count"};
  m["workspace.pool_hit_ratio"] = {ratio(pool_hits, acquires), "ratio"};
}

}  // namespace perfbench
