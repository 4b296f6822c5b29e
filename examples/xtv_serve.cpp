// Verification service CLI (src/serve, DESIGN.md §13).
//
//   xtv_serve daemon --socket PATH --jobs-dir DIR [options]
//     Long-lived daemon: builds the resident design once, then accepts
//     verification jobs over the Unix-domain socket (and, with --listen,
//     a TCP listener) until SIGTERM/SIGINT drains it (exit 0). Options:
//       --nets N                resident design size (default 800)
//       --replicate-rows R      tile the design out of R rows
//       --cell-cache PATH       characterization cache file
//       --listen HOST:PORT      also serve TCP (port 0 = ephemeral; the
//                               bound endpoint lands in JOBS/daemon.tcp)
//       --queue N               admission queue capacity (default 8)
//       --max-running N         concurrent job runners (default 1)
//       --processes N           forked lease holders per runner when the job
//                               spec does not say (default 2)
//       --retries N             default attempts after the first (default 2)
//       --deadline-ms MS        default per-attempt wall clock (0 = off)
//       --grace-ms MS           runner startup grace before the stall
//                               check arms (default 30000)
//       --backoff-base-ms MS    retry backoff base (default 500)
//       --backoff-max-ms MS     retry backoff ceiling (default 8000)
//       --global-mem-soft-mb MB cross-job memory budget: gates launches
//                               and sheds the youngest runner under live
//                               RSS pressure (0 = off)
//       --max-job-nets N        admission cap on per-job designs (0 = off)
//       --age-promote-ms MS     queued jobs older than this jump the
//                               largest-fit packing order (default 5000)
//       --max-connections N     live client connection cap (default 64)
//       --io-timeout-ms MS      per-connection read/write deadline
//                               (slow-loris eviction; 0 = off)
//       --keepalive-ms MS       idle TCP keepalive period (0 = off)
//       --drain-timeout-ms MS   drain kills running jobs after this (0 = wait)
//       --workers LIST          lease every job's victims to these
//                               xtv_worker endpoints (host:port,...)
//                               instead of forked local holders
//       --worker-heartbeat-ms MS  expected worker heartbeat (> 0, default 250)
//       --unit-victims N        victims per leased work unit (default 16)
//       --max-unit-attempts N   lease attempts before quarantine (default 4)
//
//   xtv_serve submit --socket ENDPOINT [--timeout-ms MS] [SPEC k=v ...]
//     Submits one job (trailing k=v tokens form the spec; none = the
//     chip_audit-default options; nets=N runs a per-job design), streams
//     findings, waits for the verdict. ENDPOINT is a Unix socket path or
//     HOST:PORT. Exit 0 = done, 3 = conceded, 1 = rejected/failed.
//
//   xtv_serve query --socket ENDPOINT [--timeout-ms MS] KEY
//     Prints the daemon's status line for a 16-hex job key.
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "flags.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "util/log.h"

using namespace xtv;

namespace {

int run_daemon(int argc, char** argv) {
  // A daemon's lifecycle events (admission, retries, drain) are its user
  // interface; surface them by default.
  set_log_level(LogLevel::kInfo);
  serve::DaemonOptions opt;
  flags::SeenFlags seen;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    seen.check(arg);
    auto value = [&] { return flags::value(argc, argv, &i); };
    if (std::strcmp(arg, "--socket") == 0) {
      opt.socket_path = value();
    } else if (std::strcmp(arg, "--jobs-dir") == 0) {
      opt.jobs_dir = value();
    } else if (std::strcmp(arg, "--nets") == 0) {
      opt.net_count = flags::parse_size(arg, value(), 1, "an integer >= 1");
    } else if (std::strcmp(arg, "--replicate-rows") == 0) {
      opt.replicate_rows =
          flags::parse_size(arg, value(), 1, "an integer >= 1");
    } else if (std::strcmp(arg, "--cell-cache") == 0) {
      opt.cell_cache = value();
    } else if (std::strcmp(arg, "--listen") == 0) {
      const char* v = value();
      if (!serve::parse_tcp_endpoint(std::string("tcp:") + v, nullptr,
                                     nullptr))
        flags::usage_error(arg, v, "HOST:PORT");
      opt.listen_address = v;
    } else if (std::strcmp(arg, "--queue") == 0) {
      opt.queue_capacity =
          flags::parse_size(arg, value(), 1, "an integer >= 1");
    } else if (std::strcmp(arg, "--max-running") == 0) {
      opt.max_running = flags::parse_size(arg, value(), 1, "an integer >= 1");
    } else if (std::strcmp(arg, "--processes") == 0) {
      opt.default_processes =
          flags::parse_size(arg, value(), 1, "an integer >= 1");
    } else if (std::strcmp(arg, "--retries") == 0) {
      opt.default_retries =
          flags::parse_long(arg, value(), 0, "an integer >= 0");
    } else if (std::strcmp(arg, "--deadline-ms") == 0) {
      opt.default_deadline_ms =
          flags::parse_double(arg, value(), {0.0, 1e12}, "a value >= 0 ms");
    } else if (std::strcmp(arg, "--grace-ms") == 0) {
      opt.runner_grace_ms =
          flags::parse_double(arg, value(), {0.0, 1e12}, "a value >= 0 ms");
    } else if (std::strcmp(arg, "--backoff-base-ms") == 0) {
      opt.backoff.base_ms = flags::parse_double(
          arg, value(), {0.0, 1e9, true}, "a period > 0 ms");
    } else if (std::strcmp(arg, "--backoff-max-ms") == 0) {
      opt.backoff.max_ms = flags::parse_double(
          arg, value(), {0.0, 1e9, true}, "a period > 0 ms");
    } else if (std::strcmp(arg, "--global-mem-soft-mb") == 0) {
      opt.global_mem_soft_mb =
          flags::parse_double(arg, value(), {0.0, 1e9}, "a size >= 0 MiB");
    } else if (std::strcmp(arg, "--max-job-nets") == 0) {
      opt.max_job_nets =
          flags::parse_size(arg, value(), 0, "an integer >= 0 (0 = off)");
    } else if (std::strcmp(arg, "--age-promote-ms") == 0) {
      opt.age_promote_ms =
          flags::parse_double(arg, value(), {0.0, 1e12}, "a value >= 0 ms");
    } else if (std::strcmp(arg, "--max-connections") == 0) {
      opt.max_connections =
          flags::parse_size(arg, value(), 1, "an integer >= 1");
    } else if (std::strcmp(arg, "--io-timeout-ms") == 0) {
      opt.io_timeout_ms =
          flags::parse_double(arg, value(), {0.0, 1e12}, "a value >= 0 ms");
    } else if (std::strcmp(arg, "--keepalive-ms") == 0) {
      opt.keepalive_ms =
          flags::parse_double(arg, value(), {0.0, 1e12}, "a value >= 0 ms");
    } else if (std::strcmp(arg, "--drain-timeout-ms") == 0) {
      opt.drain_timeout_ms =
          flags::parse_double(arg, value(), {0.0, 1e12}, "a value >= 0 ms");
    } else if (std::strcmp(arg, "--workers") == 0) {
      std::istringstream list(value());
      for (std::string ep; std::getline(list, ep, ',');)
        if (!ep.empty()) opt.workers.push_back(ep);
    } else if (std::strcmp(arg, "--worker-heartbeat-ms") == 0) {
      opt.worker_heartbeat_ms = flags::parse_double(
          arg, value(), {0.0, 1e9, true}, "a period > 0 ms");
    } else if (std::strcmp(arg, "--unit-victims") == 0) {
      opt.unit_victims = flags::parse_size(arg, value(), 1,
                                           "an integer >= 1");
    } else if (std::strcmp(arg, "--max-unit-attempts") == 0) {
      opt.max_unit_attempts = flags::parse_size(arg, value(), 1,
                                                "an integer >= 1");
    } else {
      std::fprintf(stderr, "usage error: unknown daemon flag %s\n", arg);
      return 2;
    }
  }
  if (opt.socket_path.empty() || opt.jobs_dir.empty()) {
    std::fprintf(stderr,
                 "usage error: daemon mode requires --socket and "
                 "--jobs-dir\n");
    return 2;
  }
  serve::ServeDaemon daemon(opt);
  return daemon.run();
}

int run_submit(int argc, char** argv) {
  std::string socket_path, spec_text;
  double timeout_ms = 600000.0;
  flags::SeenFlags seen;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    seen.check(arg);
    if (std::strcmp(arg, "--socket") == 0 && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (std::strcmp(arg, "--timeout-ms") == 0 && i + 1 < argc) {
      timeout_ms = flags::parse_double(arg, argv[++i], {0.0, 1e12, true},
                                       "a value > 0 ms");
    } else if (std::strchr(arg, '=') != nullptr) {
      if (!spec_text.empty()) spec_text += ' ';
      spec_text += arg;
    } else {
      std::fprintf(stderr, "usage error: unknown submit argument %s\n", arg);
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "usage error: submit mode requires --socket\n");
    return 2;
  }

  serve::JobSpec spec;
  std::string err;
  if (!serve::JobSpec::parse(spec_text, &spec, &err)) {
    std::fprintf(stderr, "usage error: %s\n", err.c_str());
    return 2;
  }
  serve::ServeClient client;
  if (!client.connect(socket_path, &err)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 1;
  }
  std::printf("submitting job %s to %s\n",
              serve::job_key_hex(spec.key()).c_str(), socket_path.c_str());
  serve::JobResult result;
  std::size_t violations = 0;
  const bool ok = serve::submit_and_wait(
      client, spec, timeout_ms, &result, &err,
      [&](const JournalRecord& rec) {
        if (rec.finding.violation) ++violations;
      });
  if (!ok) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 1;
  }
  std::printf("job %s %s: %zu finding(s), %zu violation(s)\n",
              serve::job_key_hex(result.key).c_str(),
              serve::job_state_name(result.state), result.findings.size(),
              violations);
  if (!result.summary.empty())
    std::printf("  %s\n", result.summary.c_str());
  if (result.duplicate_findings > 0) {
    std::fprintf(stderr, "error: %zu duplicated finding(s) in the stream\n",
                 result.duplicate_findings);
    return 1;
  }
  return result.state == serve::JobState::kDone ? 0 : 3;
}

int run_query(int argc, char** argv) {
  std::string socket_path, key_hex;
  double timeout_ms = 10000.0;
  flags::SeenFlags seen;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    seen.check(arg);
    if (std::strcmp(arg, "--socket") == 0 && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (std::strcmp(arg, "--timeout-ms") == 0 && i + 1 < argc) {
      timeout_ms = flags::parse_double(arg, argv[++i], {1.0, 1e12},
                                       "a value >= 1 ms");
    } else if (arg[0] != '-') {
      key_hex = arg;
    } else {
      std::fprintf(stderr, "usage error: unknown query argument %s\n", arg);
      return 2;
    }
  }
  std::uint64_t key = 0;
  if (socket_path.empty() || !serve::parse_job_key(key_hex, &key)) {
    std::fprintf(stderr,
                 "usage error: query mode requires --socket and a 16-hex "
                 "job key\n");
    return 2;
  }
  serve::ServeClient client;
  std::string err;
  if (!client.connect(socket_path, &err) ||
      !client.send(WireType::kJobQuery, "q " + key_hex, &err)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 1;
  }
  for (;;) {
    WireFrame f;
    if (!client.recv(&f, timeout_ms, &err)) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 1;
    }
    if (f.type == WireType::kJobStatus) {
      std::printf("%s\n", f.payload.c_str());
      return 0;
    }
    if (f.type == WireType::kJobRejected) {
      std::fprintf(stderr, "error: %s\n", f.payload.c_str());
      return 1;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "daemon") == 0)
    return run_daemon(argc, argv);
  if (argc >= 2 && std::strcmp(argv[1], "submit") == 0)
    return run_submit(argc, argv);
  if (argc >= 2 && std::strcmp(argv[1], "query") == 0)
    return run_query(argc, argv);
  std::fprintf(stderr,
               "usage: xtv_serve daemon|submit|query [flags]\n"
               "  see the header comment of examples/xtv_serve.cpp\n");
  return 2;
}
