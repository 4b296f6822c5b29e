// Closed-loop load on a forked ServeDaemon (perfbench/README.md,
// workload serve_jobs): client connections each submit their next job
// only after the previous one ended, and every frame they receive is
// timestamped into the job ledger.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "bench.h"
#include "serve/client.h"
#include "serve/daemon.h"

namespace perfbench {

using namespace xtv;
using namespace xtv::serve;

namespace {

constexpr double kJobTimeoutS = 60.0;

/// Forks a ServeDaemon; returns its pid once the socket accepts, or -1.
pid_t start_daemon(const DaemonOptions& opt, std::string* error) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    int code = 1;
    try {
      ServeDaemon daemon(opt);
      code = daemon.run();
    } catch (...) {
    }
    ::_exit(code);
  }
  if (pid < 0) {
    *error = "fork failed";
    return -1;
  }
  for (int i = 0; i < 1200; ++i) {
    ServeClient probe;
    std::string err;
    if (probe.connect(opt.socket_path, &err)) return pid;
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      *error = "daemon exited during startup";
      return -1;
    }
    ::usleep(5000);
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  *error = "daemon never accepted a connection";
  return -1;
}

/// SIGTERM, then wait; true on a clean (exit 0) drain.
bool drain_daemon(pid_t pid) {
  ::kill(pid, SIGTERM);
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// One job over one connection: submit, then read frames until the
/// terminal verdict, timestamping each into the ledger.
void run_job(ServeClient& client, const JobSpec& spec, std::size_t j,
             ClosedLoopLedger& ledger, ServeJob* out) {
  std::string token = "c";  // two-step append: GCC 12 -Wrestrict false positive on operator+
  token += job_key_hex(spec.key());
  if (!client.send(WireType::kJobSubmit, token + " " + spec.to_text(), &out->error)) {
    ledger.finish(j, now_s(), false);
    return;
  }
  const double deadline = now_s() + kJobTimeoutS;
  std::string hex;
  for (;;) {
    WireFrame f;
    if (!client.recv(&f, 1e3 * (deadline - now_s()), &out->error)) break;
    const double at = now_s();
    std::istringstream in(f.payload);
    std::string first;
    in >> first;
    if (hex.empty()) {
      if (f.type == WireType::kJobRejected && (first == token || first == "-")) {
        out->rejected = true;
        out->error = "rejected: " + f.payload;
        break;
      }
      if (f.type == WireType::kJobAccepted && first == token) {
        in >> hex;
        ledger.accepted(j, at);
      }
      continue;
    }
    if (first != hex) continue;
    if (f.type == WireType::kJobFinding) {
      const std::size_t sp = f.payload.find(' ');
      JournalRecord rec;
      if (sp == std::string::npos || !journal_decode(f.payload.substr(sp + 1), rec)) {
        out->error = "malformed finding frame";
        break;
      }
      ledger.finding(j, at);
      if (!out->findings.emplace(rec.finding.net, rec).second) ++out->duplicates;
    } else if (f.type == WireType::kJobDone) {
      std::string verdict;
      in >> verdict;
      parse_job_state(verdict, &out->state);
      ledger.finish(j, at, out->state == JobState::kDone);
      return;
    }
  }
  ledger.finish(j, now_s(), false);
}

}  // namespace

JobSpec job_spec(const VerifierOptions& options, const DspChipOptions& chip) {
  JobSpec spec;
  spec.options = options;
  spec.options.threads = 1;
  spec.design_nets = chip.net_count;
  spec.design_rows = chip.replicate_rows > 1 ? chip.replicate_rows : 0;
  spec.design_seed = chip.seed;
  spec.processes = 1;
  return spec;
}

ServeRound run_serve_round(const std::string& work_dir,
                           const std::string& cell_cache,
                           const std::vector<JobSpec>& specs,
                           std::size_t clients, std::size_t max_running) {
  ServeRound round;
  std::filesystem::create_directories(work_dir);
  DaemonOptions opt;
  opt.socket_path = work_dir + "/d.sock";
  opt.jobs_dir = work_dir + "/jobs";
  opt.net_count = 16;  // the resident design is unused: every job names its own
  opt.cell_cache = cell_cache;
  opt.queue_capacity = specs.size() + 2;
  opt.max_running = max_running;
  opt.default_processes = 1;
  opt.default_retries = 0;
  opt.drain_timeout_ms = 30000.0;

  const double cpu0 = process_cpu_s(/*children=*/true);
  const double t0 = now_s();
  const pid_t daemon = start_daemon(opt, &round.error);
  round.daemon_start_s = now_s() - t0;
  if (daemon < 0) return round;

  ClosedLoopLedger ledger(specs.size(), clients);
  round.jobs.resize(specs.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ServeClient client;
      std::string err;
      if (!client.connect(opt.socket_path, &err)) return;
      for (long j = ledger.next(c, now_s()); j >= 0; j = ledger.next(c, now_s())) {
        const auto ju = static_cast<std::size_t>(j);
        run_job(client, specs[ju], ju, ledger, &round.jobs[ju]);
        if (!client.connected()) break;
      }
    });
  }
  for (auto& t : threads) t.join();
  round.daemon_rss_mib = peak_rss_mib(std::to_string(daemon));
  round.drained = drain_daemon(daemon);
  round.children_cpu_s = process_cpu_s(/*children=*/true) - cpu0;
  round.ledger = ledger.snapshot();
  round.makespan_s = ClosedLoopLedger::makespan(round.ledger);
  round.peak_outstanding = ledger.peak_outstanding();
  return round;
}

std::vector<Span> serve_spans(const ServeRound& round) {
  std::vector<Span> spans;
  for (std::size_t j = 0; j < round.ledger.size(); ++j) {
    const auto& l = round.ledger[j];
    if (l.submit < 0.0 || l.terminal < 0.0) continue;
    const long parent = static_cast<long>(spans.size());
    spans.push_back({"job", l.submit, l.terminal, -1, 0.0, j});
    auto child = [&](const char* name, double a, double b) {
      if (a >= 0.0 && b >= a) spans.push_back({name, a, b, parent, 0.0, j});
    };
    child("admit", l.submit, l.accepted);
    child("first_finding", l.accepted, l.first_finding);
    child("stream", l.first_finding, l.last_finding);
    child("finalize", l.last_finding, l.terminal);
  }
  return spans;
}

void serve_layers(const ServeRound& round, Metrics* out) {
  Metrics& m = *out;
  std::vector<double> admit_ms, first_s, stream_s, finalize_ms;
  std::size_t rejected = 0, conceded = 0, duplicates = 0;
  for (std::size_t j = 0; j < round.ledger.size(); ++j) {
    const auto& l = round.ledger[j];
    if (l.accepted >= 0.0) admit_ms.push_back(1e3 * (l.accepted - l.submit));
    if (l.first_finding >= 0.0) {
      first_s.push_back(l.first_finding - l.submit);
      stream_s.push_back(l.last_finding - l.first_finding);
      if (l.terminal >= 0.0) finalize_ms.push_back(1e3 * (l.terminal - l.last_finding));
    }
    const ServeJob& job = round.jobs[j];
    if (job.rejected) ++rejected;
    if (job.state == JobState::kConceded) ++conceded;
    duplicates += job.duplicates;
  }
  m["serve.admit_ms_p50"] = {median(admit_ms), "ms"};
  m["serve.first_finding_s_p50"] = {median(first_s), "s"};
  m["serve.stream_s_p50"] = {median(stream_s), "s"};
  m["serve.finalize_ms_p50"] = {median(finalize_ms), "ms"};
  m["serve.rejected"] = {static_cast<double>(rejected), "count"};
  m["serve.conceded"] = {static_cast<double>(conceded), "count"};
  m["serve.duplicate_findings"] = {static_cast<double>(duplicates), "count"};
  m["serve.children_cpu_s"] = {round.children_cpu_s, "s"};
}

}  // namespace perfbench
