// Remote fan-out throughput benchmark (DESIGN.md §14): leased multi-host
// distribution vs a single worker. Forks a fleet of real xtv_worker
// processes per round (1 worker, then 3), pushes the same batch of jobs
// through a RemoteExecutor per job, and measures per-job turnaround plus
// the batch makespan. Writes BENCH_remote.json for the nightly trend job.
//
// Claims under test (the PR's acceptance bar):
//  - zero lost findings: every job reports the full per-victim set,
//    bit-identical to a direct in-process run (cpu time excepted);
//  - zero duplicated or stale-accepted results (the lease table's
//    exactly-once contract, read back from the coordinator stats);
//  - jobs/min at 3 workers improves on 1 worker (needs >= 4 cores; a
//    starved box still validates the invariants above).
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "chipgen/dsp_chip.h"
#include "core/verifier.h"
#include "serve/job.h"
#include "serve/remote.h"
#include "util/timer.h"

using namespace xtv;

namespace {

struct RoundStats {
  std::size_t workers = 0;
  double makespan_s = 0.0;
  double jobs_per_min = 0.0;
  std::size_t findings_lost = 0;    ///< jobs whose findings diverge/miss
  std::size_t duplicates = 0;       ///< lease-table duplicate deliveries
  std::size_t stale_frames = 0;
  std::size_t victims_local = 0;    ///< should be 0: no fallback in a bench
};

pid_t fork_worker(const std::string& ep_file, const std::string& cache,
                  std::size_t coordinators) {
  std::fflush(stdout);
  std::fflush(stderr);
  std::remove(ep_file.c_str());
  const pid_t pid = ::fork();
  if (pid == 0) {
    serve::WorkerOptions wo;
    wo.listen = "127.0.0.1:0";
    wo.endpoint_file = ep_file;
    wo.cell_cache = cache;
    wo.max_coordinators = coordinators;
    ::_exit(serve::run_worker(wo));
  }
  return pid;
}

std::string read_endpoint(const std::string& ep_file) {
  for (int i = 0; i < 400; ++i) {
    std::ifstream in(ep_file);
    std::string ep;
    if (in >> ep && !ep.empty()) return ep;
    ::usleep(50000);
  }
  return "";
}

/// Everything but the re-measured wall clock must match the direct run.
bool finding_identical(const VictimFinding& a, const VictimFinding& b) {
  return a.net == b.net && a.peak == b.peak &&
         a.peak_fraction == b.peak_fraction && a.violation == b.violation &&
         a.status == b.status && a.retries == b.retries &&
         a.aggressors_analyzed == b.aggressors_analyzed &&
         a.reduced_order == b.reduced_order;
}

bool run_round(std::size_t n_workers, std::size_t jobs,
               const serve::JobSpec& spec, ChipVerifier& verifier,
               const ChipDesign& design, const std::string& cache,
               const VerificationReport& reference, RoundStats* stats) {
  stats->workers = n_workers;

  std::vector<pid_t> pids;
  std::vector<std::string> eps;
  const std::string tag = std::to_string(::getpid());
  for (std::size_t w = 0; w < n_workers; ++w) {
    const std::string ep_file =
        "bench_remote_" + tag + "_" + std::to_string(w) + ".ep";
    const pid_t pid = fork_worker(ep_file, cache, jobs);
    if (pid <= 0) {
      std::fprintf(stderr, "worker fork failed\n");
      return false;
    }
    pids.push_back(pid);
    const std::string ep = read_endpoint(ep_file);
    std::remove(ep_file.c_str());
    if (ep.empty()) {
      std::fprintf(stderr, "worker %zu never published an endpoint\n", w);
      for (pid_t p : pids) ::kill(p, SIGKILL);
      for (pid_t p : pids) ::waitpid(p, nullptr, 0);
      return false;
    }
    eps.push_back(ep);
  }

  bool ok = true;
  Timer batch;
  for (std::size_t j = 0; j < jobs && ok; ++j) {
    VerifierOptions vo = spec.to_options();
    serve::RemoteExecOptions ro;
    ro.workers = eps;
    ro.spec_text = spec.to_text();
    serve::RemoteExecutor exec(ro);
    vo.remote_backend = &exec;

    Timer t;
    VerificationReport report;
    try {
      report = verifier.verify(design, vo);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "job %zu threw: %s\n", j, e.what());
      ok = false;
      break;
    }
    const CoordinatorStats& rs = exec.remote_stats();
    stats->duplicates += rs.lease.duplicate_results;
    stats->stale_frames += rs.lease.stale_frames;
    stats->victims_local += rs.victims_local;

    bool identical = report.findings.size() == reference.findings.size();
    for (std::size_t i = 0; identical && i < report.findings.size(); ++i)
      identical = finding_identical(report.findings[i],
                                    reference.findings[i]);
    if (!identical) ++stats->findings_lost;
    std::printf("  job %zu: %.2f s, %zu findings%s\n", j, t.elapsed(),
                report.findings.size(), identical ? "" : " (DIVERGENT)");
  }
  stats->makespan_s = batch.elapsed();
  stats->jobs_per_min =
      stats->makespan_s > 0.0
          ? 60.0 * static_cast<double>(jobs) / stats->makespan_s
          : 0.0;

  for (pid_t p : pids) ::kill(p, SIGKILL);
  for (pid_t p : pids) ::waitpid(p, nullptr, 0);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Remote fan-out throughput: 3 workers vs 1 ==\n\n");

  std::size_t nets = 120;
  std::size_t jobs = 4;
  std::size_t fleet = 3;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--nets") == 0)
      nets = static_cast<std::size_t>(std::atoi(argv[i + 1]));
    else if (std::strcmp(argv[i], "--jobs") == 0)
      jobs = static_cast<std::size_t>(std::atoi(argv[i + 1]));
    else if (std::strcmp(argv[i], "--workers") == 0)
      fleet = static_cast<std::size_t>(std::atoi(argv[i + 1]));
  }
  if (jobs == 0) jobs = 1;
  if (fleet == 0) fleet = 1;

  const Technology tech = Technology::default_250nm();
  CellLibrary library(tech);
  CharacterizedLibrary chars(library);  // defaults: workers must match
  Extractor extractor(tech);
  DspChipOptions chip;
  chip.net_count = nets;
  const ChipDesign design = generate_dsp_chip(library, chip);
  serve::JobSpec spec;  // chip_audit-parity defaults
  spec.design_nets = nets;
  ChipVerifier verifier(extractor, chars);

  std::printf("design: %zu nets, %zu jobs, %u cores\n", nets, jobs,
              std::thread::hardware_concurrency());
  std::printf("reference run (direct, in-process)...\n");
  const VerificationReport reference =
      verifier.verify(design, spec.to_options());
  std::printf("  %zu eligible victims, %zu findings\n\n",
              reference.victims_eligible, reference.findings.size());

  // Warm cell cache: every worker loads the reference run's models, so
  // the measured makespans are distribution overhead + analysis, not
  // recharacterization.
  const std::string cache =
      "bench_remote_cells." + std::to_string(::getpid()) + ".cache";
  chars.save(cache);

  RoundStats single, multi;
  bool ok = true;
  std::printf("[round 1/2] workers=1 ...\n");
  ok = run_round(1, jobs, spec, verifier, design, cache, reference, &single) &&
       ok;
  std::printf("  %.1f s makespan, %.2f jobs/min\n", single.makespan_s,
              single.jobs_per_min);
  std::printf("[round 2/2] workers=%zu ...\n", fleet);
  ok = run_round(fleet, jobs, spec, verifier, design, cache, reference,
                 &multi) &&
       ok;
  std::printf("  %.1f s makespan, %.2f jobs/min\n\n", multi.makespan_s,
              multi.jobs_per_min);
  std::remove(cache.c_str());

  const std::size_t lost = single.findings_lost + multi.findings_lost;
  const std::size_t duplicates = single.duplicates + multi.duplicates;
  const std::size_t fallback = single.victims_local + multi.victims_local;
  const bool exact = ok && lost == 0 && duplicates == 0 && fallback == 0;
  const double speedup = single.jobs_per_min > 0.0
                             ? multi.jobs_per_min / single.jobs_per_min
                             : 0.0;

  std::printf("findings: %zu per job, %zu divergent jobs, %zu duplicated "
              "deliveries, %zu local-fallback victims\n",
              reference.findings.size(), lost, duplicates, fallback);
  std::printf("throughput: %.2f -> %.2f jobs/min (%.2fx)\n",
              single.jobs_per_min, multi.jobs_per_min, speedup);
  std::printf("\ntargets: findings-loss == 0 -> %s, speedup > 1x -> %s\n",
              exact ? "MET" : "MISSED", speedup > 1.0 ? "MET" : "MISSED");

  FILE* json = std::fopen("BENCH_remote.json", "w");
  if (json) {
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"nets\": %zu,\n", nets);
    std::fprintf(json, "  \"jobs\": %zu,\n", jobs);
    std::fprintf(json, "  \"cores\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(json, "  \"workers_fleet\": %zu,\n", fleet);
    std::fprintf(json, "  \"makespan_s_1worker\": %.3f,\n", single.makespan_s);
    std::fprintf(json, "  \"makespan_s_fleet\": %.3f,\n", multi.makespan_s);
    std::fprintf(json, "  \"jobs_per_min_1worker\": %.4f,\n",
                 single.jobs_per_min);
    std::fprintf(json, "  \"jobs_per_min_fleet\": %.4f,\n",
                 multi.jobs_per_min);
    std::fprintf(json, "  \"speedup\": %.4f,\n", speedup);
    std::fprintf(json, "  \"findings_per_job\": %zu,\n",
                 reference.findings.size());
    std::fprintf(json, "  \"findings_lost\": %zu,\n", lost);
    std::fprintf(json, "  \"duplicate_deliveries\": %zu,\n", duplicates);
    std::fprintf(json, "  \"stale_frames\": %zu,\n",
                 single.stale_frames + multi.stale_frames);
    std::fprintf(json, "  \"local_fallback_victims\": %zu,\n", fallback);
    std::fprintf(json, "  \"targets_met\": %s\n",
                 exact ? "true" : "false");
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_remote.json\n");
  }

  // Findings loss is the hard bar; the speedup target needs free cores.
  return exact ? 0 : 1;
}
