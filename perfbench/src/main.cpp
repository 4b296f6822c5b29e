// xtv benchmark driver (perfbench/README.md).
//
//   xtv_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--work-dir DIR]
//   xtv_perfbench --warm-cells [--work-dir DIR]
//
// --warm-cells characterizes the cell library into DIR/xtv_cells.cache,
// once per cache file; a workload run refuses an incomplete cache.
// --trace 0 runs the timed repetitions and prints the end-to-end metrics;
// --trace 1 runs the traced per-layer pass. Either way the outputs are
// checked (findings digest, report reconciliation, exactly-once serve
// streaming) and the last stdout line is one JSON object with every
// metric computed; perfbench/run.py selects the ones BENCHMARK.json names.
// Exit status is 0 only when every check held.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"

using namespace perfbench;
using namespace xtv;

namespace {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = [] {
    std::vector<Workload> v(2);
    v[0].name = "audit_serial";
    v[0].designs = 40;
    v[0].nets = 150;
    v[0].copies = 4;
    v[1].name = "audit_threads";
    v[1].designs = 40;
    v[1].nets = 150;
    v[1].threads = 4;
    return v;
  }();
  return w;
}

struct Outcome {
  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> breaches;

  void check(bool ok, const std::string& what) {
    if (!ok) breaches.push_back(what);
  }
};

void add(Metrics& m, const std::string& name, double v, const char* unit) {
  m[name] = {v, unit};
}

void add_accuracy(Outcome& out, const Accuracy& acc) {
  out.check(acc.err_pct.size() >= 8, "accuracy pass found fewer than 8 victims above 10% Vdd");
  double mx = 0.0;
  for (double e : acc.err_pct) mx = std::max(mx, e);
  add(out.metrics, "peak_err_pct_p50", median(acc.err_pct), "%");
  add(out.metrics, "peak_err_pct_max", mx, "%");
  add(out.metrics, "spice.golden_s_per_victim",
      acc.golden_runs ? acc.golden_s / static_cast<double>(acc.golden_runs) : 0.0, "s");
  std::printf("accuracy: %zu golden runs, %zu victims above 10%% Vdd, "
              "|err| p50 %.3f%% max %.3f%%\n",
              acc.golden_runs, acc.err_pct.size(), median(acc.err_pct), mx);
}

/// Checks one verify() run and counts its victims as attempted.
void check_verify(Outcome& out, const VerifyRun& run, const char* what) {
  out.check(report_reconciles(run),
            std::string(what) + ": eligible victims differ from the status buckets");
  out.check(run.fresh_models == 0,
            std::string(what) + ": cells were characterized inside the timed region");
  out.attempted += run.report.victims_eligible;
  out.failed += run.report.victims_eligible - run.clean;
}

// --- audit workloads --------------------------------------------------------

/// One copy of an audit run. Copy `c` of `w.copies` owns the reference
/// design 0 and every design k >= 1 with (k - 1) % copies == c, so the
/// copies split the set between them. It verifies its designs once in
/// order, then keeps cycling through them while the next one fits before
/// `t_end`. Writes one line per fact to `f`: "s design wall cpu setup
/// victims digest speed" per verify(), where speed is the mean of
/// probe_speed() just before and just after the call, "m rss_mib" after
/// the reference design, "c attempted failed", "b breach", and from copy
/// 0 the reference design's journal payloads as "r payload".
void audit_copy(const Workload& w, std::uint64_t seed, std::size_t c, double t_end,
                const std::string& cache, std::FILE* f) {
  constexpr std::size_t kMaxReps = 400;
  std::vector<std::size_t> order{0};
  for (std::size_t k = 1 + c; k < w.designs; k += w.copies) order.push_back(k);
  Outcome out;
  std::vector<double> last_wall(w.designs, 0.0);
  for (std::size_t rep = 0; rep < kMaxReps; ++rep) {
    const std::size_t k = order[rep % order.size()];
    const DesignJob job = design_job(w, seed, k);
    Setup s = make_setup(cache, job.chip);
    const double before = probe_speed(w.threads);
    VerifyRun run = run_verify(*s.libs, s.design, job.options);
    const double speed = 0.5 * (before + probe_speed(w.threads));
    check_verify(out, run, "verify");
    last_wall[k] = run.wall_s;
    std::fprintf(f, "s %zu %.17g %.17g %.17g %zu %" PRIu64 " %.17g\n", k, run.wall_s,
                 run.cpu_s, s.total_s, run.report.victims_eligible, run.digest, speed);
    std::printf("rep %zu design %zu: %zu victims, wall %.3f s, cpu %.3f s, "
                "speed %.3f, digest %016" PRIx64 "\n",
                rep, k, run.report.victims_eligible, run.wall_s, run.cpu_s, speed,
                run.digest);
    std::fflush(stdout);
    if (rep == 0) {
      // Peak RSS through the reference design, which every copy verifies
      // first: later designs vary with the seed.
      std::fprintf(f, "m %.17g\n", peak_rss_mib());
      if (c == 0)
        for (const auto& [net, rec] : run.records)
          std::fprintf(f, "r %s\n", journal_encode(rec).c_str());
    }
    const std::size_t next = order[(rep + 1) % order.size()];
    if (rep + 1 >= order.size() && now_s() + last_wall[next] > t_end) break;
  }
  std::fprintf(f, "c %zu %zu\n", out.attempted, out.failed);
  for (const std::string& b : out.breaches) std::fprintf(f, "b %s\n", b.c_str());
}

/// Runs `w.copies` audit copies as concurrent processes. On a shared
/// 4-vCPU VM the same verify() call takes from 0.8x to 1.5x its median
/// time, depending on what the host runs beside it; CPU time grows with
/// wall time, so the slow-down is the host's, not the program's. Each
/// call's wall and CPU are therefore scaled by the host speed probed in
/// the calling thread(s) right before and after it (probe_speed), which
/// gives reference-host seconds. What the probe misses only ever adds
/// time, so each design's figures are its fastest scaled call over all
/// copies and repetitions; the set's are their sums, so every run
/// measures the same work whatever its speed.
void audit_timed(const Workload& w, std::uint64_t seed, double seconds,
                 const std::string& cache, const std::string& run_dir, Outcome& out) {
  const std::size_t d = w.designs;
  const double t_end = now_s() + seconds;
  std::vector<pid_t> pids;
  for (std::size_t c = 0; c < w.copies; ++c) {
    const std::string path = run_dir + "/copy" + std::to_string(c) + ".txt";
    std::fflush(stdout);
    const pid_t pid = ::fork();
    if (pid == 0) {
      int code = 1;
      if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        try {
          audit_copy(w, seed, c, t_end, cache, f);
          code = 0;
        } catch (const std::exception& e) {
          std::fprintf(f, "b copy %zu: %s\n", c, e.what());
        }
        code = std::fclose(f) == 0 ? code : 1;
      }
      std::fflush(stdout);
      ::_exit(code);
    }
    out.check(pid > 0, "fork failed");
    if (pid > 0) pids.push_back(pid);
  }
  for (pid_t pid : pids) {
    int status = 0;
    const bool ok = ::waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                    WEXITSTATUS(status) == 0;
    out.check(ok, "an audit copy did not exit cleanly");
  }

  // wall and cpu in reference-host seconds; raw_wall as measured.
  std::vector<std::vector<double>> wall(d), cpu(d), raw_wall(d);
  std::vector<double> setup, rss, speeds;
  std::vector<std::size_t> victims(d, 0);
  std::vector<std::uint64_t> digest(d, 0);
  Records reference;
  for (std::size_t c = 0; c < w.copies; ++c) {
    std::ifstream in(run_dir + "/copy" + std::to_string(c) + ".txt");
    for (std::string line; std::getline(in, line);) {
      std::istringstream ls(line.substr(std::min<std::size_t>(2, line.size())));
      std::size_t k = 0, n = 0, a = 0, b = 0;
      double wl = 0.0, cp = 0.0, st = 0.0, mb = 0.0, sp = 0.0;
      std::uint64_t dg = 0;
      JournalRecord rec;
      switch (line.empty() ? ' ' : line[0]) {
        case 's':
          if (!(ls >> k >> wl >> cp >> st >> n >> dg >> sp) || k >= d) break;
          if (wall[k].empty()) {
            digest[k] = dg;
            victims[k] = n;
          }
          out.check(dg == digest[k], "design " + std::to_string(k) +
                                         ": findings digest differs between repetitions");
          wall[k].push_back(sp * wl);
          cpu[k].push_back(sp * cp);
          raw_wall[k].push_back(wl);
          speeds.push_back(sp);
          setup.push_back(sp * st);
          break;
        case 'm':
          if (ls >> mb) rss.push_back(mb);
          break;
        case 'c':
          if (ls >> a >> b) {
            out.attempted += a;
            out.failed += b;
          }
          break;
        case 'b':
          out.check(false, line.substr(2));
          break;
        case 'r':
          if (journal_decode(line.substr(2), rec)) reference.emplace(rec.finding.net, rec);
          break;
      }
    }
  }
  for (std::size_t k = 0; k < d; ++k)
    out.check(!wall[k].empty(), "design " + std::to_string(k) + " was never verified");
  if (!out.breaches.empty()) return;

  // Times in reference-host seconds.
  double set_wall = 0.0, set_cpu = 0.0, set_victims = 0.0, raw_set_wall = 0.0;
  std::vector<double> samples;  // every scaled verify() wall: the audit's "jobs"
  std::uint64_t set_digest = 0;
  for (std::size_t k = 0; k < d; ++k) {
    set_wall += *std::min_element(wall[k].begin(), wall[k].end());
    set_cpu += *std::min_element(cpu[k].begin(), cpu[k].end());
    raw_set_wall += *std::min_element(raw_wall[k].begin(), raw_wall[k].end());
    set_victims += static_cast<double>(victims[k]);
    set_digest = set_digest * 1099511628211ull ^ digest[k];
    samples.insert(samples.end(), wall[k].begin(), wall[k].end());
  }
  std::printf("host speed p25 %.4f p50 %.4f p75 %.4f; measured set wall %.3f s\n",
              quantile(speeds, 0.25), median(speeds), quantile(speeds, 0.75),
              raw_set_wall);
  Metrics& m = out.metrics;
  add(m, "wall_s", set_wall, "s");
  add(m, "victims_per_s", set_victims / set_wall, "1/s");
  add(m, "cpu_ms_per_victim", 1e3 * set_cpu / set_victims, "ms");
  add(m, "peak_rss_mib", median(rss), "MiB");
  add(m, "setup_s", median(setup), "s");
  add(m, "jobs_per_min", 60.0 * static_cast<double>(d) / set_wall, "1/min");
  add(m, "job_turnaround_s_p50", median(samples), "s");
  add(m, "job_turnaround_s_p75", quantile(samples, 0.75), "s");
  std::printf("design set: %zu designs, %.0f victims, %.3f s, set digest %016" PRIx64
              "; %zu copies, %zu verify() calls (p75 has %zu beyond), "
              "%zu setup samples\n",
              d, set_victims, set_wall, set_digest, w.copies, samples.size(),
              samples_beyond(samples.size(), 0.75), setup.size());

  // Untimed accuracy pass on the reference design's timed findings.
  const DesignJob reference_job = design_job(w, seed, 0);
  Setup s = make_setup(cache, reference_job.chip);
  add_accuracy(out, accuracy_pass(*s.libs, s.design, reference_job.options, reference,
                                  reference_job.chip.seed));
}

/// Designs the traced run replays: about 520 victim spans, enough for
/// victim_ms_p98 to keep 10 samples beyond it.
constexpr std::size_t kTracedDesigns = 5;

/// Appends `more` to `spans`, keeping parent links inside `more`.
void append_spans(std::vector<Span>& spans, std::vector<Span> more) {
  const long base = static_cast<long>(spans.size());
  for (Span& s : more) {
    if (s.parent >= 0) s.parent += base;
    spans.push_back(std::move(s));
  }
}

/// The per-layer run on the first kTracedDesigns designs of the set: an
/// untraced verify() of each, then its traced replay (alignment split on
/// design 0). Design 1 is replaced by its tiled, certified variant
/// (chip_audit --replicate-rows 4 --certify), so the model cache serves
/// lookups and the certificate layer runs, which the timed set never
/// does. Then the reference design is served as one job.
void audit_traced(const Workload& w, std::uint64_t seed, const std::string& cache,
                  const std::string& work_dir, Outcome& out, std::vector<Span>* spans) {
  std::vector<VerifyRun> runs;
  std::vector<double> load_s, generate_s;
  double couplings = 0.0, fresh = 0.0, models = 0.0;
  TraceLedger ledger;
  for (std::size_t k = 0; k < std::min(kTracedDesigns, w.designs); ++k) {
    DesignJob job = design_job(w, seed, k);
    if (k == 1) {
      job.chip.replicate_rows = 4;
      job.options.certify = true;
    }
    Setup s = make_setup(cache, job.chip);
    load_s.push_back(s.load_s);
    generate_s.push_back(s.generate_s);
    couplings += static_cast<double>(s.design.couplings.size());
    models = static_cast<double>(s.models_loaded);
    runs.push_back(run_verify(*s.libs, s.design, job.options));
    check_verify(out, runs.back(), "verify");
    fresh += static_cast<double>(runs.back().fresh_models);
    std::string error;
    out.check(trace_design(*s.libs, s.design, job.options, runs.back(), k == 0,
                           &ledger, &error),
              "design " + std::to_string(k) + ": " + error);
  }
  Metrics& m = out.metrics;
  add(m, "cells.load_s", median(load_s), "s");
  add(m, "cells.models_loaded", models, "count");
  add(m, "cells.characterized_fresh", fresh, "count");
  add(m, "chipgen.generate_s", median(generate_s), "s");
  add(m, "chipgen.couplings", couplings, "count");
  report_layers(runs, w.threads, &m);
  trace_metrics(ledger, &m);
  *spans = std::move(ledger.spans);

  // The reference design served as one job: the serve layer's frame
  // intervals, and the bit-identity of a served (serial, process-shard)
  // run with this workload's verify().
  const DesignJob job = design_job(w, seed, 0);
  ServeRound round = run_serve_round(work_dir + "/serve", cache,
                                     {job_spec(job.options, job.chip)}, 1, 1);
  out.check(round.error.empty() && round.drained, "serve round: " + round.error);
  const bool served = !round.jobs.empty() &&
                      round.jobs[0].state == serve::JobState::kDone &&
                      findings_digest(round.jobs[0].findings) == runs[0].digest;
  out.check(served, "served job: findings differ from verify()");
  serve_layers(round, &m);
  append_spans(*spans, serve_spans(round));

  Setup s = make_setup(cache, job.chip);
  add_accuracy(out, accuracy_pass(*s.libs, s.design, job.options, runs[0].records,
                                  job.chip.seed));
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              out.breaches.empty() ? "true" : "false", out.attempted, out.failed);
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), v, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "usage error: %s\nusage: xtv_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n"
               "       xtv_perfbench --warm-cells [--work-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, work_dir = ".";
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  bool warm_only = false;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("flag needs a value");
      return argv[++i];
    };
    char* end = nullptr;
    if (std::strcmp(argv[i], "--workload") == 0) {
      name = value();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoll(value(), &end, 10);
      if (*end != '\0' || seed < 0) usage("--seed needs an integer >= 0");
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::strtod(value(), &end);
      if (*end != '\0' || !(seconds > 0.0)) usage("--seconds needs a number > 0");
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace needs 0 or 1");
      trace = t == "1";
    } else if (std::strcmp(argv[i], "--warm-cells") == 0) {
      warm_only = true;
    } else if (std::strcmp(argv[i], "--work-dir") == 0) {
      work_dir = value();
    } else {
      usage(argv[i]);
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : workloads())
    if (cand.name == name) w = &cand;
  if (!warm_only) {
    if (name.empty() || seed < 0 || seconds < 0.0 || trace < 0)
      usage("--workload, --seed, --seconds and --trace are required");
    if (!w) usage(("unknown workload " + name).c_str());
  }

  const std::string cache = work_dir + "/xtv_cells.cache";
  if (warm_only) {
    // A process of its own, so characterization never inflates a timed
    // run's peak RSS.
    const double characterize_s = warm_cell_cache(cache);
    std::printf("one-time cell characterization: %.3f s (untimed, outside "
                "setup_s)\n",
                characterize_s);
    return 0;
  }
  Libs probe;
  probe.chars.load(cache);
  if (probe.missing_models() != 0) {
    std::fprintf(stderr, "cell cache %s is incomplete: run --warm-cells first\n",
                 cache.c_str());
    return 1;
  }
  std::printf("workload %s, seed %lld, %.0f s, trace %d\n", w->name.c_str(),
              seed, seconds, trace);
  std::fflush(stdout);

  Outcome out;
  const auto useed = static_cast<std::uint64_t>(seed);
  const std::string run_dir = work_dir + "/run." + std::to_string(::getpid());
  std::filesystem::create_directories(run_dir);
  std::vector<Span> spans;
  try {
    if (trace == 1) {
      audit_traced(*w, useed, cache, run_dir, out, &spans);
    } else {
      audit_timed(*w, useed, seconds, cache, run_dir, out);
    }
  } catch (const std::exception& e) {
    out.check(false, std::string("exception: ") + e.what());
  }
  if (trace == 1) {
    // Spans stayed in memory during the run; they are written once here.
    const std::string path = work_dir + "/spans." + w->name + ".tsv";
    write_spans(path, spans);
    std::printf("%zu spans written to %s\n", spans.size(), path.c_str());
  }
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);
  out.check(!ec, "could not remove " + run_dir);
  if (out.attempted == 0) {
    out.check(false, "no victim was attempted");
  } else {
    add(out.metrics, "clean_ratio",
        static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted),
        "ratio");
  }
  for (const std::string& b : out.breaches) std::printf("BREACH: %s\n", b.c_str());
  print_result(out);
  return out.breaches.empty() ? 0 : 1;
}
