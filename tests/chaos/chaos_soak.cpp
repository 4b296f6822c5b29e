// Chaos soak: randomized adversity against the verifier's failure-semantics
// contract (DESIGN.md §9).
//
// Each trial draws a random execution environment — worker threads, tight
// cluster deadlines, tiny memory budgets, armed fault-injection sites,
// forced memory pressure, and a simulated kill-9 (journal truncated at a
// random byte, then resumed) — runs a full verification of a fixed small
// design, and checks that:
//
//   1. verify() never lets an exception escape (no crash, no abort);
//   2. the accounting invariant holds: every eligible victim is reported
//      exactly once (analyzed + screened + fallback + failed);
//   3. every finding's status is internally consistent (a retry count,
//      error message, and peak_fraction matching what the status promises);
//   4. undisturbed victims — status kAnalyzed with zero retries — are
//      bit-identical to an unconstrained serial reference run: adversity
//      may degrade a victim's result, never silently change it.
//
// A second phase (--process-trials) attacks the forked-holder backend:
// each trial draws a holder count, a victim, and a kill count, arms the
// coordinator's deterministic SIGKILL hook (XTV_TEST_SHARD_KILL_ON_START),
// and runs the same verification twice. It checks that no victim is ever
// lost, that the contract above still holds, and that the two replays
// reach bit-identical per-victim outcomes — crash recovery must be as
// deterministic as the crash injection.
//
// A third phase (--serve-trials) attacks the verification daemon
// (src/serve): each trial forks a real ServeDaemon, submits over its
// socket, and layers on a seed-drawn subset of {runner crashes, worker
// SIGKILLs inside the runner, a client disconnect, a daemon SIGKILL +
// restart mid-run}. Odd trials run CONCURRENT: three distinct jobs under
// max_running=4, submitted over the TCP listener instead of the Unix
// socket, with a memory-pressure spike mid-run that forces the governor
// to shed the youngest runner back to queued. Every job must still end
// "done" with every victim reported exactly once, undisturbed victims
// bit-identical to a direct in-process run of the same options, and the
// final SIGTERM drain must exit 0.
//
// A fourth phase (--remote-trials) attacks the leased multi-host fan-out
// (src/serve/remote): each trial forks a fleet of real xtv_worker
// processes, runs one verification through a RemoteExecutor over TCP, and
// layers on a seed-drawn subset of {a worker that _exits on a chosen
// unit, a worker partitioned by a heartbeat stall then healed, a worker
// dropping result frames, mid-run SIGKILLs of up to the whole fleet}. It
// checks that every victim settles exactly once, that every finding is
// either bit-identical to a direct in-process run or an explicit
// kShardCrashed quarantine concession (and concessions appear only under
// worker-killing adversity), and that losing all workers still completes
// the job through the local fallback.
//
// Exit status 0 iff every trial upholds the contract. Run the reduced
// smoke via ctest (ChaosSoak.Smoke) or the full soak directly:
//   ./build/tests/chaos/chaos_soak --trials 100 --process-trials 10
//       --serve-trials 6 --remote-trials 6 --seed 1
#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chipgen/dsp_chip.h"
#include "core/journal.h"
#include "core/verifier.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/remote.h"
#include "util/fault_injection.h"
#include "util/prng.h"
#include "util/resource.h"

using namespace xtv;

namespace {

std::size_t g_checks_failed = 0;

void expect(bool ok, std::size_t trial, const char* what,
            const std::string& detail = "") {
  if (ok) return;
  ++g_checks_failed;
  std::fprintf(stderr, "trial %zu: CONTRACT VIOLATION: %s%s%s\n", trial, what,
               detail.empty() ? "" : ": ", detail.c_str());
}

struct TrialConfig {
  std::size_t threads = 1;
  double deadline_ms = 0.0;
  double mem_mb = 0.0;
  bool pressure = false;
  bool kill_resume = false;
  bool certify = false;
  double audit_fraction = 0.0;
  double model_cache_mb = 0.0;
  std::vector<FaultSite> armed;
  std::vector<std::uint64_t> periods;
  std::vector<std::uint64_t> caps;

  std::string to_string() const {
    std::string s = "threads=" + std::to_string(threads);
    char buf[64];
    if (deadline_ms > 0.0) {
      std::snprintf(buf, sizeof(buf), " deadline=%.0fms", deadline_ms);
      s += buf;
    }
    if (mem_mb > 0.0) {
      std::snprintf(buf, sizeof(buf), " mem=%.3fMiB", mem_mb);
      s += buf;
    }
    if (pressure) s += " pressure";
    if (kill_resume) s += " kill+resume";
    if (certify) s += " certify";
    if (audit_fraction > 0.0) {
      std::snprintf(buf, sizeof(buf), " audit=%.2f", audit_fraction);
      s += buf;
    }
    if (model_cache_mb > 0.0) {
      std::snprintf(buf, sizeof(buf), " cache=%.0fMiB", model_cache_mb);
      s += buf;
    }
    for (std::size_t i = 0; i < armed.size(); ++i) {
      std::snprintf(buf, sizeof(buf), " %s(p=%llu,cap=%llu)",
                    fault_site_name(armed[i]),
                    static_cast<unsigned long long>(periods[i]),
                    static_cast<unsigned long long>(caps[i]));
      s += buf;
    }
    return s;
  }
};

TrialConfig draw_config(Prng& rng) {
  TrialConfig cfg;
  cfg.threads = static_cast<std::size_t>(rng.uniform_int(1, 4));
  if (rng.bernoulli(0.5)) {
    const double choices[] = {1.0, 5.0, 20.0};
    cfg.deadline_ms = choices[rng.uniform_int(0, 2)];
  }
  if (rng.bernoulli(0.5)) {
    const double choices[] = {0.004, 0.02, 0.1};
    cfg.mem_mb = choices[rng.uniform_int(0, 2)];
  }
  cfg.pressure = rng.bernoulli(0.2);
  cfg.kill_resume = rng.bernoulli(0.4);
  cfg.certify = rng.bernoulli(0.4);
  if (cfg.certify && rng.bernoulli(0.3)) cfg.audit_fraction = 0.15;
  // Reduced-model cache on in ~40% of trials: a hit skips the Cholesky /
  // Lanczos / passivity fault sites, so cache-on trials probe the failure
  // semantics of the reuse path interleaving with injected faults.
  if (rng.bernoulli(0.4)) cfg.model_cache_mb = 8.0;

  const FaultSite pool[] = {
      FaultSite::kCholeskyFactor, FaultSite::kLanczosSweep,
      FaultSite::kPassivityCheck, FaultSite::kReducedNewton,
      FaultSite::kSpiceNewton,    FaultSite::kWaveformFinite,
      FaultSite::kFpTrap,         FaultSite::kVictimTask,
      FaultSite::kCertifyProbe,
  };
  const int n_armed = rng.uniform_int(0, 2);
  for (int i = 0; i < n_armed; ++i) {
    const std::uint64_t period_choices[] = {1, 3, 5, 9};
    const std::uint64_t cap_choices[] = {0, 1, 3};
    cfg.armed.push_back(pool[rng.uniform_int(0, 8)]);
    cfg.periods.push_back(period_choices[rng.uniform_int(0, 3)]);
    cfg.caps.push_back(cap_choices[rng.uniform_int(0, 2)]);
  }
  return cfg;
}

/// Simulates a kill-9 mid-write: keep a random byte prefix of the journal
/// (possibly cutting a record — or the header — in half).
void truncate_journal(const std::string& path, Prng& rng) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (!f) return;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  if (size > 0) {
    const long keep = static_cast<long>(rng.uniform(0.0, 1.0) * size);
    if (ftruncate(fileno(f), keep) != 0)
      std::fprintf(stderr, "warning: ftruncate(%s) failed\n", path.c_str());
  }
  std::fclose(f);
}

void check_contract(std::size_t trial, const VerificationReport& r,
                    const std::map<std::size_t, VictimFinding>& reference,
                    bool faults_armed, bool certify_on) {
  // Accounting invariant: nobody vanishes, nobody is double-counted.
  expect(r.victims_eligible == r.victims_analyzed + r.victims_screened_out +
                                   r.victims_fallback + r.victims_failed,
         trial, "accounting invariant broken");
  expect(r.victims_deadline_bound + r.victims_resource_bound +
                 r.victims_accuracy_bound + r.victims_shard_crashed <=
             r.victims_fallback,
         trial, "bound counters exceed fallback count");
  expect(r.victims_certified <= r.victims_analyzed, trial,
         "certified counter exceeds analyzed count");
  {
    // The certification/audit counters must agree with the findings.
    std::size_t certified = 0, accuracy_bound = 0, escalated = 0, audited = 0;
    for (const VictimFinding& f : r.findings) {
      if (f.status == FindingStatus::kCertified) ++certified;
      if (f.status == FindingStatus::kAccuracyBound) ++accuracy_bound;
      if (f.cert_order_escalations > 0) ++escalated;
      if (f.audited) ++audited;
    }
    expect(r.victims_certified == certified, trial,
           "victims_certified disagrees with findings");
    expect(r.victims_accuracy_bound == accuracy_bound, trial,
           "victims_accuracy_bound disagrees with findings");
    expect(r.victims_escalated == escalated, trial,
           "victims_escalated disagrees with findings");
    expect(r.victims_audited == audited, trial,
           "victims_audited disagrees with findings");
  }

  for (const VictimFinding& f : r.findings) {
    const std::string net = "net " + std::to_string(f.net);
    expect(f.peak_fraction >= 0.0 && f.peak_fraction <= 1.0 + 1e-12, trial,
           "peak_fraction out of [0,1]", net);
    switch (f.status) {
      case FindingStatus::kAnalyzed:
        expect(f.retries == 0, trial, "kAnalyzed with retries", net);
        expect(f.error.empty(), trial, "kAnalyzed with an error", net);
        break;
      case FindingStatus::kAnalyzedAfterRetry:
      case FindingStatus::kFellBackToFullSim:
      case FindingStatus::kFellBackToBound:
        expect(f.retries >= 1, trial, "degraded status without a retry", net);
        expect(!f.error.empty(), trial, "degraded status without an error",
               net);
        break;
      case FindingStatus::kDeadlineBound:
        expect(f.retries >= 1, trial, "kDeadlineBound without a retry", net);
        // error_code keeps the FIRST failure class seen, so with injected
        // faults an earlier rung's error may legitimately precede the
        // deadline; without faults the deadline must be the first error.
        expect(faults_armed || f.error_code == StatusCode::kDeadlineExceeded,
               trial, "kDeadlineBound without kDeadlineExceeded", net);
        break;
      case FindingStatus::kResourceBound:
        // Either a budget breach inside a rung (counted as a retry) or an
        // admission-control shed (no rung ever ran).
        expect(f.retries >= 1 || f.error.find("shed") != std::string::npos,
               trial, "kResourceBound neither breached nor shed", net);
        expect(faults_armed || f.error_code == StatusCode::kResourceExceeded,
               trial, "kResourceBound without kResourceExceeded", net);
        break;
      case FindingStatus::kFailed:
        expect(!f.error.empty(), trial, "kFailed without an error", net);
        expect(f.violation && f.peak_fraction == 1.0, trial,
               "kFailed not maximally pessimistic", net);
        break;
      case FindingStatus::kCertified:
        expect(certify_on, trial, "kCertified in a certify-off trial", net);
        expect(f.certified, trial, "kCertified without the certified flag",
               net);
        break;
      case FindingStatus::kAccuracyBound:
        expect(certify_on, trial, "kAccuracyBound in a certify-off trial",
               net);
        expect(!f.certified, trial, "kAccuracyBound claims certified", net);
        expect(!f.error.empty(), trial, "kAccuracyBound without an error",
               net);
        break;
      case FindingStatus::kShardCrashed:
        expect(!f.error.empty(), trial, "kShardCrashed without an error", net);
        expect(f.error_code == StatusCode::kWorkerCrashed, trial,
               "kShardCrashed without kWorkerCrashed", net);
        break;
    }
    if (!certify_on)
      expect(!f.certified && f.cert_order_escalations == 0, trial,
             "certification fields set in a certify-off trial", net);

    // Certification: an undisturbed victim must match the unconstrained
    // reference bit-for-bit — adversity degrades, never perturbs. With
    // certify on, a kCertified victim that never retried or escalated ran
    // the exact same accepted simulation the reference did — the
    // certificate only READS the model — so its numbers must also match.
    const bool undisturbed_analyzed =
        f.status == FindingStatus::kAnalyzed && f.retries == 0;
    const bool undisturbed_certified = f.status == FindingStatus::kCertified &&
                                       f.retries == 0 &&
                                       f.cert_order_escalations == 0;
    if (undisturbed_analyzed || undisturbed_certified) {
      const auto it = reference.find(f.net);
      expect(it != reference.end(), trial, "analyzed net missing in reference",
             net);
      if (it == reference.end()) continue;
      const VictimFinding& ref = it->second;
      if (ref.status != FindingStatus::kAnalyzed) continue;  // ref degraded
      const bool identical =
          f.peak == ref.peak && f.peak_fraction == ref.peak_fraction &&
          f.violation == ref.violation &&
          f.reduced_order == ref.reduced_order &&
          f.aggressors_analyzed == ref.aggressors_analyzed;
      expect(identical, trial, "certified finding differs from reference", net);
    }
  }
}

// ---------------------------------------------------------------------------
// Serve-phase plumbing (--serve-trials).

void remove_tree(const std::string& path) {
  DIR* d = ::opendir(path.c_str());
  if (d) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      remove_tree(path + "/" + name);
    }
    ::closedir(d);
    ::rmdir(path.c_str());
  } else {
    std::remove(path.c_str());
  }
}

pid_t fork_daemon(const serve::DaemonOptions& opt) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    serve::ServeDaemon daemon(opt);
    ::_exit(daemon.run());
  }
  return pid;
}

bool wait_daemon_ready(const std::string& socket_path, pid_t pid,
                       double timeout_ms) {
  for (double waited = 0.0; waited < timeout_ms; waited += 50.0) {
    serve::ServeClient probe;
    std::string err;
    if (probe.connect(socket_path, &err)) return true;
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) return false;
    ::usleep(50000);
  }
  return false;
}

/// SIGKILLs any runner left orphaned by a SIGKILLed daemon, via the same
/// .pid files the daemon's own recovery uses (the chaos harness must not
/// leak process groups between trials).
void kill_orphan_runners(const std::string& jobs_dir) {
  DIR* d = ::opendir(jobs_dir.c_str());
  if (!d) return;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() < 4 || name.substr(name.size() - 4) != ".pid") continue;
    std::FILE* f = std::fopen((jobs_dir + "/" + name).c_str(), "r");
    if (!f) continue;
    long pid = 0;
    if (std::fscanf(f, "%ld", &pid) == 1 && pid > 1) {
      ::kill(-static_cast<pid_t>(pid), SIGKILL);
      ::kill(static_cast<pid_t>(pid), SIGKILL);
    }
    std::fclose(f);
  }
  ::closedir(d);
}

// ---------------------------------------------------------------------------
// Remote-phase plumbing (--remote-trials).

/// Forks one xtv_worker serving a single coordinator; the bound ephemeral
/// endpoint is discovered through the atomically published file. Test
/// hooks travel to the worker through the environment, so callers set
/// them before this fork and clear them right after.
pid_t fork_remote_worker(const std::string& ep_file,
                         const std::string& cell_cache) {
  std::fflush(stdout);
  std::fflush(stderr);
  std::remove(ep_file.c_str());
  const pid_t pid = ::fork();
  if (pid == 0) {
    serve::WorkerOptions wo;
    wo.listen = "127.0.0.1:0";
    wo.endpoint_file = ep_file;
    wo.cell_cache = cell_cache;
    wo.max_coordinators = 1;
    ::_exit(serve::run_worker(wo));
  }
  return pid;
}

std::string read_worker_endpoint(const std::string& ep_file) {
  for (int i = 0; i < 200; ++i) {
    std::ifstream in(ep_file);
    std::string ep;
    if (in >> ep && !ep.empty()) return ep;
    ::usleep(50000);
  }
  return "";
}

/// Submits without waiting; "" on acceptance, the reason otherwise.
std::string serve_submit_nowait(serve::ServeClient& client,
                                const serve::JobSpec& spec) {
  std::string token = "c";
  token += serve::job_key_hex(spec.key());
  std::string err;
  if (!client.send(WireType::kJobSubmit, token + " " + spec.to_text(), &err))
    return "send: " + err;
  for (;;) {
    WireFrame f;
    if (!client.recv(&f, 30000.0, &err)) return "recv: " + err;
    if (f.payload.rfind(token + " ", 0) != 0) continue;
    if (f.type == WireType::kJobAccepted) return "";
    if (f.type == WireType::kJobRejected)
      return f.payload.substr(token.size() + 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t trials = 50;
  std::size_t process_trials = 0;
  std::size_t serve_trials = 0;
  std::size_t remote_trials = 0;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc)
      trials = static_cast<std::size_t>(std::atoi(argv[++i]));
    else if (std::strcmp(argv[i], "--process-trials") == 0 && i + 1 < argc)
      process_trials = static_cast<std::size_t>(std::atoi(argv[++i]));
    else if (std::strcmp(argv[i], "--serve-trials") == 0 && i + 1 < argc)
      serve_trials = static_cast<std::size_t>(std::atoi(argv[++i]));
    else if (std::strcmp(argv[i], "--remote-trials") == 0 && i + 1 < argc)
      remote_trials = static_cast<std::size_t>(std::atoi(argv[++i]));
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    else {
      std::fprintf(stderr,
                   "usage: chaos_soak [--trials N] [--process-trials N] "
                   "[--serve-trials N] [--remote-trials N] [--seed S]\n");
      return 2;
    }
  }

  const Technology tech = Technology::default_250nm();
  CellLibrary library(tech);
  CharacterizeOptions copt;
  copt.iv_grid = 11;
  CharacterizedLibrary chars(library, copt);
  Extractor extractor(tech);
  DspChipOptions chip_opt;
  chip_opt.net_count = 80;
  chip_opt.tracks = 8;
  const ChipDesign design = generate_dsp_chip(library, chip_opt);

  VerifierOptions base;
  base.glitch.align_aggressors = false;
  base.glitch.tstop = 3e-9;

  ChipVerifier verifier(extractor, chars);
  std::printf("chaos_soak: %zu trials, seed %llu\n", trials,
              static_cast<unsigned long long>(seed));
  std::printf("reference run (unconstrained, serial)...\n");
  const VerificationReport ref_report = verifier.verify(design, base);
  std::map<std::size_t, VictimFinding> reference;
  for (const VictimFinding& f : ref_report.findings) reference[f.net] = f;
  std::printf("  %zu eligible victims, %zu violations\n",
              ref_report.victims_eligible, ref_report.violations);

  const std::string journal_path =
      "chaos_soak_" + std::to_string(::getpid()) + ".journal";
  Prng rng(seed);
  std::size_t escapes = 0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const TrialConfig cfg = draw_config(rng);
    VerifierOptions options = base;
    options.threads = cfg.threads;
    options.cluster_deadline_ms = cfg.deadline_ms;
    options.cluster_mem_mb = cfg.mem_mb;
    options.certify = cfg.certify;
    options.audit_fraction = cfg.audit_fraction;
    options.model_cache_mb = cfg.model_cache_mb;
    // A forever-firing kCertifyProbe would otherwise climb every victim to
    // the default ceiling; keep the chaos trials bounded.
    options.max_mor_order = 24;
    if (cfg.kill_resume) options.journal_path = journal_path;

    FaultInjector::instance().reset();
    for (std::size_t i = 0; i < cfg.armed.size(); ++i)
      FaultInjector::instance().arm(cfg.armed[i], cfg.periods[i], cfg.caps[i]);
    resource::MemoryGovernor::instance().force_pressure(cfg.pressure);

    bool escaped = false;
    VerificationReport report;
    try {
      report = verifier.verify(design, options);
      if (cfg.kill_resume) {
        // Kill-9 simulation: tear the journal at a random byte, then
        // resume. Injection is re-armed so the re-analyzed victims see
        // the same per-victim fault schedule.
        truncate_journal(journal_path, rng);
        FaultInjector::instance().reset();
        for (std::size_t i = 0; i < cfg.armed.size(); ++i)
          FaultInjector::instance().arm(cfg.armed[i], cfg.periods[i],
                                        cfg.caps[i]);
        options.resume = true;
        report = verifier.verify(design, options);
      }
    } catch (const std::exception& e) {
      escaped = true;
      ++escapes;
      ++g_checks_failed;
      std::fprintf(stderr, "trial %zu: ESCAPED EXCEPTION: %s [%s]\n", trial,
                   e.what(), cfg.to_string().c_str());
    }

    FaultInjector::instance().reset();
    resource::MemoryGovernor::instance().force_pressure(false);
    std::remove(journal_path.c_str());

    if (!escaped) {
      const std::size_t before = g_checks_failed;
      check_contract(trial, report, reference, !cfg.armed.empty(),
                     cfg.certify);
      std::printf(
          "trial %3zu: ok=%s analyzed=%zu fallback=%zu (ddl=%zu mem=%zu) "
          "failed=%zu [%s]\n",
          trial, g_checks_failed == before ? "yes" : "NO",
          report.victims_analyzed, report.victims_fallback,
          report.victims_deadline_bound, report.victims_resource_bound,
          report.victims_failed, cfg.to_string().c_str());
    }
  }

  // Phase two: deterministic process-kill trials against forked holders.
  // Each trial SIGKILLs a holder mid-run (seed-keyed victim and kill count)
  // and replays the identical configuration; recovery must lose nothing and
  // must land on the same per-victim outcomes both times.
  for (std::size_t t = 0; t < process_trials; ++t) {
    const std::size_t trial = trials + t;
    const std::size_t processes =
        static_cast<std::size_t>(rng.uniform_int(2, 3));
    const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<int>(ref_report.findings.size()) - 1));
    const std::size_t victim = ref_report.findings[pick].net;
    const int kills = rng.uniform_int(1, 2);

    VerifierOptions options = base;
    options.processes = processes;
    options.journal_path = journal_path;

    const std::string hook =
        std::to_string(victim) + ":" + std::to_string(kills);
    ::setenv("XTV_TEST_SHARD_KILL_ON_START", hook.c_str(), 1);

    bool escaped = false;
    VerificationReport first, second;
    try {
      first = verifier.verify(design, options);
      std::remove(journal_path.c_str());
      second = verifier.verify(design, options);
    } catch (const std::exception& e) {
      escaped = true;
      ++escapes;
      ++g_checks_failed;
      std::fprintf(stderr,
                   "trial %zu: ESCAPED EXCEPTION: %s [procs=%zu kill=%s]\n",
                   trial, e.what(), processes, hook.c_str());
    }
    ::unsetenv("XTV_TEST_SHARD_KILL_ON_START");
    std::remove(journal_path.c_str());
    if (escaped) continue;

    const std::size_t before = g_checks_failed;
    check_contract(trial, first, reference, false, false);
    check_contract(trial, second, reference, false, false);

    // Nobody is lost: the kill must not shrink the victim population.
    expect(first.victims_eligible == ref_report.victims_eligible, trial,
           "process trial lost eligible victims");
    expect(first.findings.size() == ref_report.findings.size(), trial,
           "process trial lost findings");

    // One failed-lease victim per trial; a holder dies once per armed
    // kill; the victim is conceded only when its retry is also killed.
    expect(first.worker_crashes == static_cast<std::size_t>(kills), trial,
           "worker crash count disagrees with armed kills");
    expect(first.victims_quarantined == 1, trial,
           "expected exactly one quarantined victim");
    expect(first.victims_shard_crashed == (kills >= 2 ? 1u : 0u), trial,
           "shard-crashed count disagrees with armed kills");

    // Replays are stable: identical per-victim outcomes, bit for bit.
    expect(second.findings.size() == first.findings.size(), trial,
           "replay changed the finding count");
    if (second.findings.size() == first.findings.size()) {
      for (std::size_t i = 0; i < first.findings.size(); ++i) {
        const VictimFinding& a = first.findings[i];
        const VictimFinding& b = second.findings[i];
        const std::string net = "net " + std::to_string(a.net);
        expect(a.net == b.net && a.status == b.status && a.peak == b.peak &&
                   a.peak_fraction == b.peak_fraction &&
                   a.violation == b.violation,
               trial, "replay diverged from first run", net);
      }
    }

    std::printf(
        "trial %3zu: ok=%s procs=%zu kill=%s crashes=%zu quarantined=%zu "
        "shard-crashed=%zu restarts=%zu\n",
        trial, g_checks_failed == before ? "yes" : "NO", processes,
        hook.c_str(), first.worker_crashes, first.victims_quarantined,
        first.victims_shard_crashed, first.shard_restarts);
  }

  // Phase three: daemon robustness trials. Each trial forks a real
  // ServeDaemon over a fresh jobs directory, layers seed-drawn adversity
  // on one submitted job, and holds the serve contract: the job ends
  // "done", every victim is streamed exactly once, undisturbed victims
  // are bit-identical to a direct run, and the drain exits 0.
  if (serve_trials > 0) {
    // Direct-run reference with the daemon's exact construction: default
    // characterization (not the soak's reduced grid) and the default DSP
    // chip at the serve net count — the daemon must reproduce this
    // bit-for-bit through fork, shard processes, and crash recovery.
    const std::size_t serve_nets = 60;
    CellLibrary serve_lib(tech);
    CharacterizedLibrary serve_chars(serve_lib);
    Extractor serve_extractor(tech);
    DspChipOptions serve_chip;
    serve_chip.net_count = serve_nets;
    const ChipDesign serve_design = generate_dsp_chip(serve_lib, serve_chip);
    serve::JobSpec spec;  // chip_audit-parity defaults
    VerifierOptions serve_vo = spec.to_options();
    serve_vo.threads = 1;
    serve_vo.processes = 0;
    ChipVerifier serve_verifier(serve_extractor, serve_chars);
    std::printf("serve reference run (direct, in-process)...\n");
    const VerificationReport serve_ref =
        serve_verifier.verify(serve_design, serve_vo);
    std::map<std::size_t, const VictimFinding*> serve_ref_by_net;
    for (const VictimFinding& f : serve_ref.findings)
      serve_ref_by_net[f.net] = &f;

    const std::string base_dir =
        "chaos_serve_" + std::to_string(::getpid());
    for (std::size_t t = 0; t < serve_trials; ++t) {
      const std::size_t trial = trials + process_trials + t;

      // Draw the adversity mix. Concurrency and the TCP transport
      // alternate deterministically so even a 2-trial smoke covers both
      // the single-job Unix-socket path and the 4-wide TCP path.
      const bool concurrent = (t % 2 == 1);
      const bool use_tcp = concurrent;
      const int runner_crashes = rng.uniform_int(0, 2);
      const bool disconnect = rng.bernoulli(0.3);
      const bool daemon_kill = rng.bernoulli(0.4);
      const bool worker_kill = rng.bernoulli(0.3);
      std::size_t kill_victim = 0;
      int worker_kills = 0;
      if (worker_kill) {
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<int>(serve_ref.findings.size()) - 1));
        kill_victim = serve_ref.findings[pick].net;
        worker_kills = rng.uniform_int(1, 2);
      }

      const std::size_t before = g_checks_failed;
      const std::string dir = base_dir + "_" + std::to_string(t);
      remove_tree(dir);
      ::mkdir(dir.c_str(), 0755);
      serve::DaemonOptions opt;
      opt.socket_path = dir + "/s.sock";
      opt.jobs_dir = dir + "/jobs";
      opt.net_count = serve_nets;
      opt.default_processes = 2;
      opt.default_retries = 3;  // absorbs the worst crash draw (2)
      opt.backoff.base_ms = 50.0;
      opt.backoff.max_ms = 200.0;
      const std::string rss_path = dir + "/rss_mb";
      auto set_rss = [&](const char* mb) {
        std::ofstream out(rss_path);
        out << mb << "\n";
      };
      if (concurrent) {
        opt.max_running = 4;
        opt.listen_address = "127.0.0.1:0";
        // The governor watches this fake RSS reading; the trial spikes
        // it mid-run to force a shed.
        opt.global_mem_soft_mb = 100.0;
        set_rss("10");
        ::setenv("XTV_TEST_SERVE_RSS_FILE", rss_path.c_str(), 1);
      }

      if (runner_crashes > 0)
        ::setenv("XTV_TEST_SERVE_RUNNER_CRASH",
                 std::to_string(runner_crashes).c_str(), 1);
      if (worker_kill) {
        const std::string hook = std::to_string(kill_victim) + ":" +
                                 std::to_string(worker_kills);
        ::setenv("XTV_TEST_SHARD_KILL_ON_START", hook.c_str(), 1);
      }

      // One job on even trials; three distinct jobs (audit_seed is in
      // the job identity but, with auditing off, not in the findings) on
      // concurrent trials. Explicit per-job reservations keep all three
      // inside the 100 MiB budget at once — the structural estimate for
      // a 2-process job exceeds the whole budget, which would serialize
      // them and leave the shed spike with nothing to shed.
      std::vector<serve::JobSpec> specs(1, spec);
      if (concurrent) {
        specs[0].mem_mb = 25.0;
        for (std::size_t j = 1; j < 3; ++j) {
          serve::JobSpec s = specs[0];
          s.options.audit_seed = 1000 + j;
          specs.push_back(s);
        }
      }

      char cfg[192];
      std::snprintf(cfg, sizeof(cfg),
                    "jobs=%zu tcp=%d crashes=%d disconnect=%d daemon-kill=%d "
                    "worker-kill=%s",
                    specs.size(), use_tcp ? 1 : 0, runner_crashes,
                    disconnect ? 1 : 0, daemon_kill ? 1 : 0,
                    worker_kill ? (std::to_string(kill_victim) + ":" +
                                   std::to_string(worker_kills))
                                      .c_str()
                                : "-");

      // Resolve the submission endpoint: the Unix socket, or the TCP
      // endpoint the daemon published (re-read after every restart — an
      // ephemeral port never survives a SIGKILL).
      auto endpoint = [&]() -> std::string {
        if (!use_tcp) return opt.socket_path;
        const std::string path = opt.jobs_dir + "/daemon.tcp";
        for (int i = 0; i < 200; ++i) {
          std::ifstream in(path);
          std::string ep;
          if (std::getline(in, ep) && !ep.empty()) return ep;
          ::usleep(50000);
        }
        return "";
      };

      pid_t daemon_pid = fork_daemon(opt);
      bool ok = daemon_pid > 0 &&
                wait_daemon_ready(opt.socket_path, daemon_pid, 120000.0);
      expect(ok, trial, "daemon never became ready", cfg);

      // Submit from first clients — which may vanish right after.
      if (ok) {
        std::vector<std::unique_ptr<serve::ServeClient>> firsts;
        for (const serve::JobSpec& s : specs) {
          auto first = std::make_unique<serve::ServeClient>();
          std::string err;
          const std::string ep = endpoint();
          ok = !ep.empty() && first->connect(ep, &err) &&
               serve_submit_nowait(*first, s).empty();
          expect(ok, trial, "submission was not accepted", cfg);
          if (!ok) break;
          firsts.push_back(std::move(first));
        }
        if (!disconnect && ok) {
          // Keep the connections open a moment so the daemon exercises
          // live watchers; the scope exit is the disconnect case.
          ::usleep(10000);
        }
      }

      // Memory-pressure spike: the governor must shed the youngest
      // runner back to queued (attempt refunded) and recover once the
      // pressure clears — with zero effect on the final findings.
      if (ok && concurrent) {
        ::usleep(static_cast<useconds_t>(rng.uniform_int(50, 250)) * 1000);
        set_rss("500");
        ::usleep(300000);
        set_rss("10");
      }

      // Daemon SIGKILL mid-run, then a cold restart over the same state.
      if (ok && daemon_kill) {
        ::usleep(static_cast<useconds_t>(rng.uniform_int(30, 300)) * 1000);
        ::kill(daemon_pid, SIGKILL);
        int status = 0;
        ::waitpid(daemon_pid, &status, 0);
        std::remove((opt.jobs_dir + "/daemon.tcp").c_str());  // stale port
        daemon_pid = fork_daemon(opt);
        ok = daemon_pid > 0 &&
             wait_daemon_ready(opt.socket_path, daemon_pid, 120000.0);
        expect(ok, trial, "restarted daemon never became ready", cfg);
      }

      std::size_t collected = 0;
      if (ok) {
        for (const serve::JobSpec& s : specs) {
          serve::JobResult result;
          serve::ServeClient client;
          std::string err;
          const std::string ep = endpoint();
          const bool job_ok =
              !ep.empty() && client.connect(ep, &err) &&
              serve::submit_and_wait(client, s, 300000.0, &result, &err);
          expect(job_ok, trial, "job never reached a terminal state",
                 std::string(cfg) + (err.empty() ? "" : ": " + err));
          if (!job_ok) {
            ok = false;
            continue;
          }
          collected += result.findings.size();

          expect(result.state == serve::JobState::kDone, trial,
                 "job ended conceded despite an absorbable crash budget",
                 cfg);
          expect(result.duplicate_findings == 0, trial,
                 "a finding was streamed more than once", cfg);

          // Exactly one explicit outcome per victim: the streamed net
          // set must equal the reference victim set — nothing lost,
          // nothing invented.
          expect(result.findings.size() == serve_ref.findings.size(), trial,
                 "finding count differs from the direct run",
                 std::to_string(result.findings.size()) + " vs " +
                     std::to_string(serve_ref.findings.size()));
          for (const auto& [net, rec] : result.findings) {
            const auto it = serve_ref_by_net.find(net);
            expect(it != serve_ref_by_net.end(), trial,
                   "served finding for a net the direct run never reported",
                   "net " + std::to_string(net));
            if (it == serve_ref_by_net.end()) continue;
            const VictimFinding& want = *it->second;
            const VictimFinding& got = rec.finding;
            const bool identical =
                got.peak == want.peak &&
                got.peak_fraction == want.peak_fraction &&
                got.violation == want.violation &&
                got.status == want.status &&
                got.reduced_order == want.reduced_order;
            if (worker_kill && net == kill_victim) {
              // The kill budget is shared across concurrent jobs, so any
              // one job may have seen 0, 1 (recovered bit-exact), or 2
              // kills (explicit kShardCrashed concession) on this net.
              expect(identical ||
                         got.status == FindingStatus::kShardCrashed,
                     trial,
                     "killed victim neither bit-exact nor conceded",
                     "net " + std::to_string(net));
              if (!concurrent && worker_kills >= 2)
                // Single-job trials are deterministic: both kills landed
                // here, so it MUST be the typed concession.
                expect(got.status == FindingStatus::kShardCrashed, trial,
                       "twice-killed victim not conceded as kShardCrashed",
                       "net " + std::to_string(net));
              continue;
            }
            expect(identical, trial,
                   "served finding differs from the direct run",
                   "net " + std::to_string(net));
          }
        }
      }

      // Drain: SIGTERM must end the daemon with exit 0.
      if (daemon_pid > 0) {
        ::kill(daemon_pid, SIGTERM);
        int status = 0;
        ::waitpid(daemon_pid, &status, 0);
        if (ok)
          expect(WIFEXITED(status) && WEXITSTATUS(status) == 0, trial,
                 "drain did not exit 0", cfg);
      }

      ::unsetenv("XTV_TEST_SERVE_RUNNER_CRASH");
      ::unsetenv("XTV_TEST_SHARD_KILL_ON_START");
      ::unsetenv("XTV_TEST_SERVE_RSS_FILE");
      kill_orphan_runners(opt.jobs_dir);
      remove_tree(dir);
      std::printf("trial %3zu: ok=%s findings=%zu [%s]\n", trial,
                  ok && g_checks_failed == before ? "yes" : "NO", collected,
                  cfg);
    }
  }

  // Phase four: remote fan-out trials. Each trial forks a worker fleet,
  // runs one verification through a RemoteExecutor, and layers seed-drawn
  // worker adversity on top. The contract: every victim settles exactly
  // once, every finding is bit-identical to the direct run or an explicit
  // quarantine concession, and concessions only appear when something
  // actually killed workers.
  if (remote_trials > 0) {
    // Direct-run reference with the worker's exact construction: default
    // characterization and the default DSP chip at the spec'd net count.
    const std::size_t remote_nets = 60;
    CellLibrary remote_lib(tech);
    CharacterizedLibrary remote_chars(remote_lib);
    Extractor remote_extractor(tech);
    DspChipOptions remote_chip;
    remote_chip.net_count = remote_nets;
    const ChipDesign remote_design = generate_dsp_chip(remote_lib, remote_chip);
    serve::JobSpec rspec;  // chip_audit-parity defaults
    rspec.design_nets = remote_nets;
    ChipVerifier remote_verifier(remote_extractor, remote_chars);
    std::printf("remote reference run (direct, in-process)...\n");
    const VerificationReport remote_ref =
        remote_verifier.verify(remote_design, rspec.to_options());
    std::map<std::size_t, VictimFinding> remote_reference;
    for (const VictimFinding& f : remote_ref.findings)
      remote_reference[f.net] = f;

    // Warm cell cache: workers skip recharacterization, keeping each
    // trial's handshake in the milliseconds.
    const std::string tag = std::to_string(::getpid());
    const std::string cache = "chaos_remote_cells_" + tag + ".cache";
    const std::string rjournal = "chaos_remote_" + tag + ".journal";
    remote_chars.save(cache);

    for (std::size_t t = 0; t < remote_trials; ++t) {
      const std::size_t trial = trials + process_trials + serve_trials + t;
      const std::size_t n_workers =
          static_cast<std::size_t>(rng.uniform_int(1, 3));
      // Worker 0 may _exit on a chosen unit; the last worker may stall
      // through its lease (partition-then-heal); worker 1 may drop result
      // frames. With a small fleet the draws can collide on one worker —
      // crash beats stall beats drop, so each trial stays interpretable.
      const std::size_t crash_unit =
          static_cast<std::size_t>(rng.uniform_int(0, 3));
      const std::size_t drop_every =
          static_cast<std::size_t>(rng.uniform_int(2, 4));
      const bool crash_one = rng.bernoulli(0.35);
      const bool stall_one =
          rng.bernoulli(0.3) && !(crash_one && n_workers == 1);
      const bool drop_one =
          rng.bernoulli(0.3) &&
          !(n_workers == 1 && (crash_one || stall_one));
      const int sigkills = rng.uniform_int(0, static_cast<int>(n_workers));
      const int kill_delay_ms = rng.uniform_int(30, 250);
      const bool journal_on = rng.bernoulli(0.5);

      std::vector<pid_t> pids;
      std::vector<std::string> eps;
      bool ok = true;
      for (std::size_t w = 0; w < n_workers && ok; ++w) {
        const bool crash_here = crash_one && w == 0;
        const bool stall_here = stall_one && w == n_workers - 1 && !crash_here;
        const bool drop_here = drop_one && (n_workers == 1 || w == 1);
        if (crash_here)
          ::setenv("XTV_TEST_WORKER_CRASH_UNIT",
                   std::to_string(crash_unit).c_str(), 1);
        if (stall_here) ::setenv("XTV_TEST_WORKER_STALL_MS", "1200", 1);
        if (drop_here)
          ::setenv("XTV_TEST_DROP_FRAME_EVERY",
                   std::to_string(drop_every).c_str(), 1);
        const std::string ep_file =
            "chaos_remote_" + tag + "_" + std::to_string(w) + ".ep";
        const pid_t pid = fork_remote_worker(ep_file, cache);
        ::unsetenv("XTV_TEST_WORKER_CRASH_UNIT");
        ::unsetenv("XTV_TEST_WORKER_STALL_MS");
        ::unsetenv("XTV_TEST_DROP_FRAME_EVERY");
        if (pid <= 0) {
          expect(false, trial, "worker fork failed");
          ok = false;
          break;
        }
        pids.push_back(pid);
        const std::string ep = read_worker_endpoint(ep_file);
        std::remove(ep_file.c_str());
        if (ep.empty()) {
          expect(false, trial, "worker never published an endpoint");
          ok = false;
          break;
        }
        eps.push_back(ep);
      }

      char cfg[160];
      std::snprintf(cfg, sizeof(cfg),
                    "workers=%zu crash=%s stall=%d drop=%s sigkills=%d@%dms "
                    "journal=%d",
                    n_workers,
                    crash_one ? std::to_string(crash_unit).c_str() : "-",
                    stall_one ? 1 : 0,
                    drop_one ? std::to_string(drop_every).c_str() : "-",
                    sigkills, kill_delay_ms, journal_on ? 1 : 0);

      bool escaped = false;
      VerificationReport report;
      if (ok) {
        VerifierOptions vo = rspec.to_options();
        if (journal_on) vo.journal_path = rjournal;
        serve::RemoteExecOptions ro;
        ro.workers = eps;
        ro.heartbeat_ms = 100.0;  // a 1.2 s stall expires and heals in-trial
        ro.unit_victims = 4;
        ro.backoff_base_ms = 100.0;
        ro.spec_text = rspec.to_text();
        serve::RemoteExecutor exec(ro);
        vo.remote_backend = &exec;

        // Seed-keyed mid-run SIGKILLs, fleet-wide at the top draw — the
        // all-workers-dead trials must still complete via local fallback.
        std::thread killer;
        if (sigkills > 0) {
          std::vector<pid_t> targets(pids.begin(), pids.begin() + sigkills);
          killer = std::thread([targets, kill_delay_ms] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kill_delay_ms));
            for (pid_t pid : targets) ::kill(pid, SIGKILL);
          });
        }
        try {
          report = remote_verifier.verify(remote_design, vo);
        } catch (const std::exception& e) {
          escaped = true;
          ++escapes;
          ++g_checks_failed;
          std::fprintf(stderr, "trial %zu: ESCAPED EXCEPTION: %s [%s]\n",
                       trial, e.what(), cfg);
        }
        if (killer.joinable()) killer.join();
      }

      for (pid_t pid : pids) {
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
      }
      std::remove(rjournal.c_str());

      if (ok && !escaped) {
        const std::size_t before = g_checks_failed;
        check_contract(trial, report, remote_reference, false, false);

        // Exactly once: the victim population survives any adversity.
        expect(report.victims_eligible == remote_ref.victims_eligible, trial,
               "remote trial lost eligible victims", cfg);
        expect(report.findings.size() == remote_ref.findings.size(), trial,
               "remote trial changed the finding count", cfg);

        // Every finding is the direct run's, bit for bit, or an explicit
        // quarantine concession — and concessions require worker deaths.
        const bool deadly = crash_one || sigkills > 0;
        std::size_t conceded = 0;
        for (const VictimFinding& f : report.findings) {
          const auto it = remote_reference.find(f.net);
          expect(it != remote_reference.end(), trial,
                 "remote finding for a net the direct run never reported",
                 "net " + std::to_string(f.net));
          if (it == remote_reference.end()) continue;
          if (f.status == FindingStatus::kShardCrashed) {
            ++conceded;
            expect(deadly, trial,
                   "quarantine concession without worker-killing adversity",
                   "net " + std::to_string(f.net));
            continue;
          }
          const VictimFinding& want = it->second;
          expect(f.peak == want.peak &&
                     f.peak_fraction == want.peak_fraction &&
                     f.violation == want.violation &&
                     f.status == want.status &&
                     f.reduced_order == want.reduced_order,
                 trial, "remote finding differs from the direct run",
                 "net " + std::to_string(f.net));
        }
        expect(report.victims_shard_crashed == conceded, trial,
               "shard-crashed counter disagrees with the findings", cfg);

        std::printf("trial %3zu: ok=%s findings=%zu conceded=%zu "
                    "restarts=%zu [%s]\n",
                    trial, g_checks_failed == before ? "yes" : "NO",
                    report.findings.size(), conceded, report.shard_restarts,
                    cfg);
      }
    }
    std::remove(cache.c_str());
  }

  std::printf("\nchaos_soak: %zu trials, %zu process trials, %zu serve "
              "trials, %zu remote trials, %zu contract violations, %zu "
              "escaped exceptions\n",
              trials, process_trials, serve_trials, remote_trials,
              g_checks_failed, escapes);
  return g_checks_failed == 0 ? 0 : 1;
}
