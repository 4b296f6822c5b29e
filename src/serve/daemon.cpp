#include "serve/daemon.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>

#include "core/journal.h"
#include "core/pipeline.h"
#include "core/verifier.h"
#include "serve/client.h"
#include "serve/remote.h"
#include "util/atomic_file.h"
#include "util/log.h"
#include "util/resource.h"
#include "util/subprocess.h"

namespace xtv {
namespace serve {

namespace {

double now_ms() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// Shared with the signal handlers; lock-free stores/loads only.
volatile sig_atomic_t g_drain_requested = 0;
int g_wake_fd = -1;

extern "C" void serve_signal_handler(int sig) {
  if (sig == SIGTERM || sig == SIGINT) g_drain_requested = 1;
  const int fd = g_wake_fd;
  if (fd >= 0) {
    const char b = 0;
    // Best effort: a full pipe already guarantees a wakeup.
    const ssize_t rc = ::write(fd, &b, 1);
    (void)rc;
  }
}

/// /proc/<pid>/comm, newline stripped; empty when the pid is gone. Used
/// to make sure a recovered .pid file still names one of OUR runners and
/// not an unrelated process that recycled the pid.
std::string read_comm(pid_t pid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%ld/comm",
                static_cast<long>(pid));
  std::FILE* f = std::fopen(path, "rb");
  if (!f) return "";
  char buf[64] = {0};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::string comm(buf, n);
  while (!comm.empty() && (comm.back() == '\n' || comm.back() == '\0'))
    comm.pop_back();
  return comm;
}

/// Chaos hook: when `env` is set to N, the first N runner launches each
/// claim one O_EXCL counter file in the jobs directory and misbehave;
/// later launches run normally. The files make the budget survive daemon
/// restarts, which the crash-recovery chaos trials need.
bool claim_test_slot(const std::string& jobs_dir, const char* env,
                     const char* tag) {
  const char* v = std::getenv(env);
  if (!v) return false;
  const long times = std::atol(v);
  for (long i = 0; i < times; ++i) {
    const std::string path =
        jobs_dir + "/" + tag + "." + std::to_string(i);
    const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
  }
  return false;
}

/// A client that stops reading while a big job streams would otherwise
/// buffer without bound; past this the daemon drops the connection (the
/// client can resubmit — replay is idempotent).
constexpr std::size_t kMaxClientBuffer = 8u << 20;

/// Inbound mirror of kMaxClientBuffer: a peer that streams frame bytes
/// faster than the daemon dispatches them (or declares a huge frame and
/// trickles it) is bounded here. Legitimate requests are tiny.
constexpr std::size_t kMaxClientInbound = 4u << 20;

/// A shed runner that ignores its SIGTERM is escalated to SIGKILL after
/// this long (it still requeues; the journal keeps its progress).
constexpr double kShedEscalateMs = 5000.0;

/// Minimum spacing between sheds, so one RSS spike cannot cascade into
/// killing every runner before the first shed's memory is returned.
constexpr double kShedHysteresisMs = 500.0;

/// Daemon RSS in MiB. XTV_TEST_SERVE_RSS_FILE overrides the /proc reading
/// with a number read from the named file — the deterministic lever the
/// shed tests and chaos trials use to fake memory pressure.
double effective_rss_mb() {
  if (const char* path = std::getenv("XTV_TEST_SERVE_RSS_FILE")) {
    std::FILE* f = std::fopen(path, "rb");
    if (f) {
      double mb = 0.0;
      const bool ok = std::fscanf(f, "%lf", &mb) == 1;
      std::fclose(f);
      if (ok) return mb;
    }
  }
  return static_cast<double>(resource::read_rss_bytes()) / (1024.0 * 1024.0);
}

std::string daemon_pid_path(const std::string& jobs_dir) {
  return jobs_dir + "/daemon.pid";
}

/// Chipgen parameters of the daemon's resident design.
DspChipOptions resident_chip(const DaemonOptions& opt) {
  DspChipOptions chip;
  chip.net_count = opt.net_count;
  chip.replicate_rows = opt.replicate_rows;
  return chip;
}

std::string daemon_tcp_path(const std::string& jobs_dir) {
  return jobs_dir + "/daemon.tcp";
}

}  // namespace

ServeDaemon::ServeDaemon(const DaemonOptions& options)
    : opt_(options),
      tech_(Technology::default_250nm()),
      library_(tech_),
      chars_(library_),
      extractor_(tech_),
      queue_(options.queue_capacity),
      governor_(options.global_mem_soft_mb) {}

ServeDaemon::~ServeDaemon() {
  for (Client& c : clients_)
    if (c.fd >= 0) ::close(c.fd);
  for (auto& [key, job] : jobs_)
    if (job.pipe_fd >= 0) ::close(job.pipe_fd);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(opt_.socket_path.c_str());
  }
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    ::unlink(daemon_tcp_path(opt_.jobs_dir).c_str());
  }
  if (wrote_pid_file_) ::unlink(daemon_pid_path(opt_.jobs_dir).c_str());
  g_wake_fd = -1;
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

void ServeDaemon::build_design() {
  ::mkdir(opt_.jobs_dir.c_str(), 0755);  // EEXIST is fine
  if (!opt_.cell_cache.empty()) chars_.load(opt_.cell_cache);
  design_ = generate_dsp_chip(library_, resident_chip(opt_));
  // Summaries warm the characterization tables every forked runner
  // inherits.
  chip_net_summaries(design_, extractor_, chars_);
  if (!opt_.cell_cache.empty()) chars_.save(opt_.cell_cache);
  logf(LogLevel::kInfo,
       "serve: resident design ready: %zu nets, %zu couplings",
       design_.nets.size(), design_.couplings.size());
}

bool ServeDaemon::bind_socket(std::string* error) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (opt_.socket_path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + opt_.socket_path;
    return false;
  }
  std::strncpy(addr.sun_path, opt_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  // Cold-start hygiene: a SIGKILLed daemon leaves its socket file (and
  // daemon.pid) behind. The pid file decides whether the jobs dir is
  // still owned — a live daemon whose pid still runs this binary must not
  // be hijacked; anything else is stale and gets swept so bind() cannot
  // fail on the leftovers.
  const std::string pid_path = daemon_pid_path(opt_.jobs_dir);
  std::FILE* pf = std::fopen(pid_path.c_str(), "rb");
  if (pf) {
    long pid = 0;
    const bool parsed = std::fscanf(pf, "%ld", &pid) == 1;
    std::fclose(pf);
    const std::string own_comm = read_comm(::getpid());
    if (parsed && pid > 1 && pid != static_cast<long>(::getpid()) &&
        !own_comm.empty() &&
        read_comm(static_cast<pid_t>(pid)) == own_comm) {
      *error = "daemon pid " + std::to_string(pid) + " already owns " +
               opt_.jobs_dir + " (" + pid_path + ")";
      return false;
    }
    ::unlink(pid_path.c_str());
  }

  // Belt and braces for daemons predating the pid file (or a recycled pid
  // running this binary for an unrelated jobs dir): probe with a connect
  // before sweeping the socket file.
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe >= 0) {
    const int rc = ::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr));
    ::close(probe);
    if (rc == 0) {
      *error = "another daemon is already serving " + opt_.socket_path;
      return false;
    }
  }
  ::unlink(opt_.socket_path.c_str());

  // The pid file goes down before listen(): once the socket accepts, the
  // pid file exists. Atomic write: a reader racing our startup must never
  // see a torn pid (the liveness check would probe the wrong process).
  if (write_file_atomic(pid_path,
                        std::to_string(static_cast<long>(::getpid())) + "\n"))
    wrote_pid_file_ = true;
  auto fail = [&](const char* what) {
    const int err = errno;
    *error = std::string(what) + opt_.socket_path + ": " + std::strerror(err);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    if (wrote_pid_file_) ::unlink(pid_path.c_str());
    wrote_pid_file_ = false;
    return false;
  };
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket() for ");
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0)
    return fail("bind/listen on ");
  subprocess::set_nonblocking(listen_fd_);
  return true;
}

void ServeDaemon::recover_jobs_dir() {
  DIR* d = ::opendir(opt_.jobs_dir.c_str());
  if (!d) return;
  std::vector<std::uint64_t> keys;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    // job_<16 hex>.spec
    if (name.size() != 4 + 16 + 5 || name.compare(0, 4, "job_") != 0 ||
        name.compare(20, 5, ".spec") != 0)
      continue;
    std::uint64_t key = 0;
    if (parse_job_key(name.substr(4, 16), &key)) keys.push_back(key);
  }
  ::closedir(d);

  const std::string own_comm = read_comm(::getpid());
  const double now = now_ms();
  for (std::uint64_t key : keys) {
    const JobPaths paths = job_paths(opt_.jobs_dir, key);
    Job job;
    std::string err;
    if (!load_spec_file(paths.spec, &job.spec, &job.attempts, &err)) {
      logf(LogLevel::kWarn, "serve: recovery skipping %s: %s",
           paths.spec.c_str(), err.c_str());
      continue;
    }

    // Already terminal: keep it replayable, nothing to do.
    std::uint64_t dkey = 0;
    JobState dstate = JobState::kDone;
    std::string dsummary;
    if (load_done_file(paths.done, &dkey, &dstate, &dsummary) &&
        dkey == key) {
      job.state = dstate;
      job.terminal_summary = dsummary;
      jobs_.emplace(key, std::move(job));
      continue;
    }

    // A runner orphaned by a SIGKILLed daemon may still be alive (or its
    // pid may have been recycled — hence the comm check). Reap it and
    // its process group; its journals keep whatever it finished.
    std::FILE* pf = std::fopen(paths.pid.c_str(), "rb");
    if (pf) {
      long pid = 0;
      if (std::fscanf(pf, "%ld", &pid) == 1 && pid > 1 &&
          !own_comm.empty() && read_comm(static_cast<pid_t>(pid)) == own_comm) {
        logf(LogLevel::kWarn,
             "serve: reaping orphaned runner pid %ld for job %s", pid,
             job_key_hex(key).c_str());
        ::kill(-static_cast<pid_t>(pid), SIGKILL);
        ::kill(static_cast<pid_t>(pid), SIGKILL);
      }
      std::fclose(pf);
      ::unlink(paths.pid.c_str());
    }

    const long retries =
        job.spec.retries >= 0 ? job.spec.retries : opt_.default_retries;
    const std::size_t allowed = static_cast<std::size_t>(retries) + 1;
    auto [it, inserted] = jobs_.emplace(key, std::move(job));
    (void)inserted;
    if (it->second.attempts >= allowed) {
      concede_job(key, it->second,
                  "interrupted with its retry budget already spent");
    } else {
      it->second.state = JobState::kBackoff;
      it->second.enqueued_ms = now;
      queue_.push_backoff(key, it->second.attempts, now, opt_.backoff);
      logf(LogLevel::kInfo,
           "serve: recovered interrupted job %s (attempt %zu/%zu)",
           job_key_hex(key).c_str(), it->second.attempts, allowed);
    }
  }
}

bool ServeDaemon::memory_gate_open() const {
  if (resource::MemoryGovernor::instance().under_pressure()) return false;
  if (opt_.global_mem_soft_mb > 0.0 &&
      effective_rss_mb() > opt_.global_mem_soft_mb)
    return false;
  return true;
}

double ServeDaemon::job_reserve_mb(const JobSpec& spec) const {
  if (spec.mem_mb > 0.0) return spec.mem_mb;  // client knows best
  // Estimate: each lease holder is a fork of the daemon image (CoW, but
  // it dirties its victims' clusters and model cache) plus the runner
  // itself; the per-net term covers cluster state scaling with the
  // job's design size.
  const std::size_t nets =
      spec.has_design_ref() ? spec.design_nets : design_.nets.size();
  const std::size_t procs =
      spec.processes != 0 ? spec.processes
                          : std::max<std::size_t>(1, opt_.default_processes);
  return 48.0 * static_cast<double>(procs + 1) +
         0.02 * static_cast<double>(nets) * static_cast<double>(procs);
}

std::vector<std::size_t> ServeDaemon::candidates_for(const JobSpec& spec) {
  // Jobs with their own design reference are rare on this path (only
  // concession needs it), so the design is regenerated rather than
  // cached.
  const ChipDesign* target = &design_;
  ChipDesign job_design;
  if (spec.has_design_ref()) {
    job_design = generate_dsp_chip(library_, spec.chip_options());
    target = &job_design;
  }
  const VerifierOptions vo = spec.to_options();
  ChipVerifier verifier(extractor_, chars_);
  return ChipVerifier::Prepared(verifier, *target, vo).candidates();
}

// --- Client plumbing ---------------------------------------------------

void ServeDaemon::send_frame(Client& c, WireType type,
                             const std::string& payload) {
  if (c.fd < 0) return;
  c.outbuf += wire_encode_frame(type, payload);
  c.last_tx_ms = now_ms();
  if (c.outbuf.size() > kMaxClientBuffer) {
    logf(LogLevel::kWarn, "serve: dropping unresponsive client (%zu buffered)",
         c.outbuf.size());
    ::close(c.fd);
    c.fd = -1;
    return;
  }
  flush_client(c);
}

void ServeDaemon::flush_client(Client& c) {
  while (c.fd >= 0 && !c.outbuf.empty()) {
    const ssize_t n = ::write(c.fd, c.outbuf.data(), c.outbuf.size());
    if (n > 0) {
      c.outbuf.erase(0, static_cast<std::size_t>(n));
      c.last_progress_ms = now_ms();
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // POLLOUT will resume
    } else {
      ::close(c.fd);  // client went away mid-stream; jobs keep running
      c.fd = -1;
      return;
    }
  }
}

void ServeDaemon::stream_finding(std::uint64_t key, Job& job,
                                 std::size_t net,
                                 const std::string& payload) {
  (void)job;
  const std::string hex = job_key_hex(key);
  for (Client& c : clients_) {
    if (c.fd < 0 || !c.watching.count(key)) continue;
    auto& sent = c.sent[key];
    if (!sent.insert(net).second) continue;  // exactly-once per client
    send_frame(c, WireType::kJobFinding, hex + " " + payload);
  }
}

// --- Protocol handlers -------------------------------------------------

void ServeDaemon::on_submit(Client& c, const std::string& payload) {
  std::istringstream in(payload);
  std::string token;
  if (!(in >> token)) return;  // not answerable without a token
  std::string spec_text;
  std::getline(in, spec_text);

  if (draining_) {
    send_frame(c, WireType::kJobRejected,
               token + " draining " +
                   serve_escape("daemon is draining; resubmit later"));
    return;
  }
  JobSpec spec;
  std::string perr;
  // Parse rejects malformed specs AND unreadable design= files (the file
  // is resolved right here, at admission, not at launch).
  if (!JobSpec::parse(spec_text, &spec, &perr)) {
    send_frame(c, WireType::kJobRejected,
               token + " bad-spec " + serve_escape(perr));
    return;
  }
  if (opt_.max_job_nets != 0 && spec.design_nets > opt_.max_job_nets) {
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "design of %zu nets exceeds --max-job-nets %zu",
                  spec.design_nets, opt_.max_job_nets);
    send_frame(c, WireType::kJobRejected,
               token + " oversized " + serve_escape(detail));
    return;
  }

  const std::uint64_t key = spec.key();
  const std::string hex = job_key_hex(key);
  auto it = jobs_.find(key);
  if (it != jobs_.end()) {
    // Idempotent resubmit: attach to the existing job and replay what it
    // already has. The per-client sent set keeps the stream exactly-once
    // even across repeated resubmits.
    Job& job = it->second;
    send_frame(c, WireType::kJobAccepted,
               token + " " + hex + " " + job_state_name(job.state));
    c.watching.insert(key);
    if (job.state == JobState::kDone || job.state == JobState::kConceded) {
      finalize_terminal(key, job);  // replays to every watcher incl. this one
    } else {
      auto& sent = c.sent[key];
      for (const auto& [net, pl] : job.findings)
        if (sent.insert(net).second)
          send_frame(c, WireType::kJobFinding, hex + " " + pl);
    }
    return;
  }

  if (!queue_.push(key)) {
    char detail[64];
    std::snprintf(detail, sizeof(detail),
                  "admission queue at capacity (%zu)", queue_.capacity());
    send_frame(c, WireType::kJobRejected,
               token + " queue-full " + serve_escape(detail));
    return;
  }

  Job job;
  job.spec = spec;
  job.enqueued_ms = now_ms();
  const JobPaths paths = job_paths(opt_.jobs_dir, key);
  std::string werr;
  if (!write_spec_file(paths.spec, spec, 0, &werr)) {
    queue_.erase(key);
    send_frame(c, WireType::kJobRejected,
               token + " io-error " + serve_escape(werr));
    return;
  }
  jobs_.emplace(key, std::move(job));
  c.watching.insert(key);
  send_frame(c, WireType::kJobAccepted, token + " " + hex + " queued");
  logf(LogLevel::kInfo, "serve: admitted job %s (%zu queued)", hex.c_str(),
       queue_.size());
}

void ServeDaemon::on_query(Client& c, const std::string& payload) {
  std::istringstream in(payload);
  std::string token, hex;
  if (!(in >> token)) return;
  std::uint64_t key = 0;
  if (!(in >> hex) || !parse_job_key(hex, &key) || !jobs_.count(key)) {
    send_frame(c, WireType::kJobRejected,
               token + " unknown-job " + serve_escape(hex));
    return;
  }
  const Job& job = jobs_.at(key);
  std::ostringstream out;
  out << hex << ' ' << job_state_name(job.state) << " attempts="
      << job.attempts << " findings=" << job.findings.size();
  if (!job.terminal_summary.empty())
    out << ' ' << job.terminal_summary;
  send_frame(c, WireType::kJobStatus, out.str());
}

void ServeDaemon::handle_client_frames(Client& c, double now) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(c.fd, buf, sizeof(buf));
    if (n > 0) {
      c.decoder.feed(buf, static_cast<std::size_t>(n));
      c.last_rx_ms = now;
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      ::close(c.fd);  // EOF or hard error: client disconnected
      c.fd = -1;
      return;
    }
  }
  WireFrame f;
  while (c.fd >= 0 && c.decoder.next(&f)) {
    switch (f.type) {
      case WireType::kJobSubmit:
        on_submit(c, f.payload);
        break;
      case WireType::kJobQuery:
        on_query(c, f.payload);
        break;
      default:
        break;  // daemon->client types echoed back; ignore
    }
  }
  if (c.fd >= 0 && c.decoder.corrupt()) {
    // Latch-and-close: the decoder never resynchronizes a corrupt stream,
    // so neither does the daemon. The client reconnects and resubmits
    // (replay is idempotent).
    logf(LogLevel::kWarn, "serve: dropping client with corrupt stream");
    ::close(c.fd);
    c.fd = -1;
  }
  if (c.fd >= 0 && c.decoder.buffered() > kMaxClientInbound) {
    logf(LogLevel::kWarn,
         "serve: dropping client flooding %zu undispatched bytes",
         c.decoder.buffered());
    ::close(c.fd);
    c.fd = -1;
  }
}

void ServeDaemon::handle_listen(int listen_fd, bool tcp) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept error; poll retries
    }

    std::size_t live = 0;
    for (const Client& c : clients_)
      if (c.fd >= 0) ++live;
    if (opt_.max_connections != 0 && live >= opt_.max_connections) {
      // Before refusing, sweep peers that already sent FIN with nothing
      // left to read (one-shot status pollers, the startup ready probe):
      // their EOF may be queued behind this accept in the same poll
      // batch, and a dead connection holds no claim on a slot.
      for (Client& c : clients_) {
        if (c.fd < 0) continue;
        char peek;
        if (::recv(c.fd, &peek, 1, MSG_PEEK | MSG_DONTWAIT) == 0) {
          ::close(c.fd);
          c.fd = -1;
          --live;
        }
      }
    }
    if (opt_.max_connections != 0 && live >= opt_.max_connections) {
      // Explicit pushback, not a silent RST: one best-effort kJobRejected
      // frame, then close. The fd is still blocking here, but the frame
      // is tiny (fits any socket buffer), so this cannot wedge the loop.
      char detail[64];
      std::snprintf(detail, sizeof(detail), "connection cap (%zu) reached",
                    opt_.max_connections);
      const std::string frame = wire_encode_frame(
          WireType::kJobRejected,
          std::string("- conn-limit ") + serve_escape(detail));
      const ssize_t rc = ::write(fd, frame.data(), frame.size());
      (void)rc;
      ::close(fd);
      logf(LogLevel::kWarn, "serve: refused connection: %s", detail);
      continue;
    }

    subprocess::set_nonblocking(fd);
    if (tcp) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    Client c;
    c.fd = fd;
    c.tcp = tcp;
    const double now = now_ms();
    c.last_rx_ms = now;
    c.last_tx_ms = now;
    c.last_progress_ms = now;
    clients_.push_back(std::move(c));
  }
}

void ServeDaemon::police_clients(double now) {
  for (Client& c : clients_) {
    if (c.fd < 0) continue;
    if (opt_.io_timeout_ms > 0.0) {
      // Slow loris: a partial frame parked in the decoder with no new
      // bytes arriving holds daemon memory hostage — evict.
      if (c.decoder.buffered() > 0 && now - c.last_rx_ms > opt_.io_timeout_ms) {
        logf(LogLevel::kWarn,
             "serve: evicting connection stalled mid-frame (%zu bytes, "
             "silent %.0f ms)",
             c.decoder.buffered(), now - c.last_rx_ms);
        ::close(c.fd);
        c.fd = -1;
        continue;
      }
      // Write deadline: a peer that stops reading while output is queued
      // is evicted once no write makes progress for the timeout.
      if (!c.outbuf.empty() &&
          now - c.last_progress_ms > opt_.io_timeout_ms) {
        logf(LogLevel::kWarn,
             "serve: evicting connection not draining %zu queued bytes",
             c.outbuf.size());
        ::close(c.fd);
        c.fd = -1;
        continue;
      }
    }
    // Idle keepalive (TCP only): dead peers surface as write errors
    // instead of lingering forever; live clients skip the frame.
    if (c.tcp && opt_.keepalive_ms > 0.0 && c.outbuf.empty() &&
        now - c.last_tx_ms > opt_.keepalive_ms)
      send_frame(c, WireType::kHeartbeat, "0");
  }
}

// --- Runner lifecycle --------------------------------------------------

int ServeDaemon::runner_main(const Job& job, int write_fd) {
  // The child inherited the daemon's signal plumbing; detach from it so
  // verify()'s own child management and pgid kills behave normally.
  g_wake_fd = -1;
  ::signal(SIGTERM, SIG_DFL);
  ::signal(SIGINT, SIG_DFL);
  ::signal(SIGCHLD, SIG_DFL);
  subprocess::ignore_sigpipe();

  const std::uint64_t key = job.spec.key();
  const std::string hex = job_key_hex(key);
  const JobPaths paths = job_paths(opt_.jobs_dir, key);
  WireWriter writer(write_fd);
  writer.send(WireType::kHello, hex);

  // Chaos hooks (see claim_test_slot).
  if (claim_test_slot(opt_.jobs_dir, "XTV_TEST_SERVE_RUNNER_CRASH",
                      "runner_crash"))
    ::abort();
  if (claim_test_slot(opt_.jobs_dir, "XTV_TEST_SERVE_RUNNER_STALL",
                      "runner_stall"))
    for (;;) ::pause();

  VerifierOptions vo = job.spec.to_options();
  // Always run forked holders: a victim that crashes its holder then
  // costs the job that victim, not the runner and every victim with it.
  if (vo.processes == 0)
    vo.processes = std::max<std::size_t>(1, opt_.default_processes);
  vo.threads = 1;
  vo.journal_path = paths.journal;
  vo.resume = true;  // an absent journal resumes as an empty one

  double last_hb = now_ms();
  std::uint64_t seq = 0;
  const double hb_period = job.spec.heartbeat_ms;
  vo.on_tick = [&] {
    const double t = now_ms();
    if (t - last_hb < hb_period) return;
    last_hb = t;
    char s[32];
    std::snprintf(s, sizeof(s), "%llu",
                  static_cast<unsigned long long>(seq++));
    writer.send(WireType::kHeartbeat, s);
  };
  vo.on_record = [&](const JournalRecord& rec) {
    writer.send(WireType::kJobFinding, hex + " " + journal_encode(rec));
  };

  // Remote fan-out: lease this job's victims to the configured xtv_worker
  // fleet (serve/remote.h). Workers rebuild the design from the spec text,
  // so a resident-design job gets the daemon's generator parameters
  // stamped in as an explicit design reference first.
  std::unique_ptr<RemoteExecutor> remote;
  if (!opt_.workers.empty()) {
    JobSpec wspec = job.spec;
    if (!wspec.has_design_ref()) wspec.set_chip_options(resident_chip(opt_));
    RemoteExecOptions ro;
    ro.workers = opt_.workers;
    ro.heartbeat_ms = opt_.worker_heartbeat_ms;
    ro.unit_victims = opt_.unit_victims;
    ro.max_unit_attempts = opt_.max_unit_attempts;
    ro.spec_text = wspec.to_text();
    remote = std::make_unique<RemoteExecutor>(ro);
    vo.remote_backend = remote.get();
  }

  try {
    // A spec with its own design reference gets a chip generated in the
    // runner (the fork keeps the daemon's library/characterization warm);
    // everything else runs against the inherited resident design.
    const ChipDesign* target = &design_;
    ChipDesign job_design;
    if (job.spec.has_design_ref()) {
      job_design = generate_dsp_chip(library_, job.spec.chip_options());
      target = &job_design;
    }
    ChipVerifier verifier(extractor_, chars_);
    const VerificationReport report = verifier.verify(*target, vo);
    char summary[256];
    std::snprintf(summary, sizeof(summary),
                  "eligible=%zu analyzed=%zu screened=%zu fallback=%zu "
                  "failed=%zu shard_crashed=%zu violations=%zu",
                  report.victims_eligible, report.victims_analyzed,
                  report.victims_screened_out, report.victims_fallback,
                  report.victims_failed, report.victims_shard_crashed,
                  report.violations);
    // The runner writes its own terminal marker: even a runner orphaned
    // by a daemon SIGKILL then finishes its job durably, and the
    // restarted daemon finds the .done file instead of re-running.
    std::string derr;
    if (!write_done_file(paths.done, key, JobState::kDone, summary, &derr)) {
      logf(LogLevel::kError, "serve runner %s: %s", hex.c_str(),
           derr.c_str());
      return 1;
    }
    writer.send(WireType::kJobDone, hex + " done " + std::string(summary));
    return 0;
  } catch (const std::exception& e) {
    logf(LogLevel::kError, "serve runner %s: verify failed: %s", hex.c_str(),
         e.what());
    return 1;
  }
}

bool ServeDaemon::launch(std::uint64_t key, Job& job, double now) {
  const JobPaths paths = job_paths(opt_.jobs_dir, key);
  ++job.attempts;
  std::string werr;
  // Persist the attempt BEFORE the fork: if the daemon is SIGKILLed right
  // after, recovery still sees the attempt as spent and the retry ladder
  // cannot run forever.
  if (!write_spec_file(paths.spec, job.spec, job.attempts, &werr)) {
    logf(LogLevel::kError, "serve: cannot persist %s: %s",
         paths.spec.c_str(), werr.c_str());
    job.state = JobState::kBackoff;
    queue_.push_backoff(key, job.attempts, now, opt_.backoff);
    return false;
  }

  subprocess::Pipe pipe;
  try {
    pipe = subprocess::make_pipe();
  } catch (const std::exception& e) {
    logf(LogLevel::kError, "serve: %s", e.what());
    job.state = JobState::kBackoff;
    queue_.push_backoff(key, job.attempts, now, opt_.backoff);
    return false;
  }

  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe.read_fd);
    ::close(pipe.write_fd);
    logf(LogLevel::kError, "serve: fork(): %s", std::strerror(errno));
    job.state = JobState::kBackoff;
    queue_.push_backoff(key, job.attempts, now, opt_.backoff);
    return false;
  }
  if (pid == 0) {
    // Runner child: own process group (so one SIGKILL reaps it together
    // with its forked lease holders), daemon fds closed.
    ::setpgid(0, 0);
    ::close(pipe.read_fd);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
    if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
    for (Client& c : clients_)
      if (c.fd >= 0) ::close(c.fd);
    for (auto& [k, other] : jobs_)
      if (other.pipe_fd >= 0) ::close(other.pipe_fd);
    ::_exit(runner_main(job, pipe.write_fd));
  }
  ::setpgid(pid, pid);  // also set from the parent: closes the race
  ::close(pipe.write_fd);
  subprocess::set_nonblocking(pipe.read_fd);

  job.pid = pid;
  job.pipe_fd = pipe.read_fd;
  job.decoder = WireDecoder();
  job.heard_any = false;
  job.kill_sent = false;
  job.shed_pending = false;
  job.shed_sent_ms = 0.0;
  job.kill_reason.clear();
  job.launched_ms = now;
  job.last_heard_ms = now;
  job.state = JobState::kRunning;
  job.reserve_mb = job_reserve_mb(job.spec);
  governor_.reserve(key, job.reserve_mb);

  // Atomic write: recovery reads this file to reap orphaned runners; a
  // torn pid would aim the reaper at an unrelated process.
  write_file_atomic(paths.pid,
                    std::to_string(static_cast<long>(pid)) + "\n");
  logf(LogLevel::kInfo, "serve: job %s attempt %zu running as pid %ld",
       job_key_hex(key).c_str(), job.attempts, static_cast<long>(pid));
  return true;
}

void ServeDaemon::kill_runner(Job& job) {
  if (job.pid <= 0 || job.kill_sent) return;
  ::kill(-job.pid, SIGKILL);  // whole runner group: lease holders included
  ::kill(job.pid, SIGKILL);
  job.kill_sent = true;
}

void ServeDaemon::handle_runner_frames(Job& job, double now) {
  const std::uint64_t key = job.spec.key();
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(job.pipe_fd, buf, sizeof(buf));
    if (n > 0) {
      job.decoder.feed(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      // EOF/error. NOT a death verdict by itself (lease holders inherit
      // the write end); try_wait in reap_runners() is authoritative.
      ::close(job.pipe_fd);
      job.pipe_fd = -1;
      break;
    }
  }
  WireFrame f;
  while (job.decoder.next(&f)) {
    switch (f.type) {
      case WireType::kHeartbeat:
        job.heard_any = true;
        job.last_heard_ms = now;
        break;
      case WireType::kJobFinding: {
        job.heard_any = true;
        job.last_heard_ms = now;
        const std::size_t sp = f.payload.find(' ');
        if (sp == std::string::npos) break;
        const std::string payload = f.payload.substr(sp + 1);
        JournalRecord rec;
        if (!journal_decode(payload, rec)) break;
        job.findings[rec.finding.net] = payload;
        stream_finding(key, job, rec.finding.net, payload);
        break;
      }
      case WireType::kJobDone:
      case WireType::kHello:
        job.last_heard_ms = now;
        break;
      default:
        break;
    }
  }
  if (job.decoder.corrupt() && !job.kill_sent) {
    job.kill_reason = "corrupt runner stream";
    kill_runner(job);
  }
}

std::map<std::size_t, JournalRecord> ServeDaemon::collect_results(
    const Job& job) const {
  const std::uint64_t key = job.spec.key();
  // Journal headers carry what verify() stamps: the bare options hash
  // (== key only for resident-design jobs).
  const std::uint64_t jhash = job.spec.options_hash();
  const JobPaths paths = job_paths(opt_.jobs_dir, key);
  std::map<std::size_t, JournalRecord> results =
      load_run_journal(paths.journal, jhash).records;
  // Live-streamed findings may be ahead of the insurance file.
  for (const auto& [net, payload] : job.findings) {
    JournalRecord rec;
    if (journal_decode(payload, rec)) results.insert_or_assign(net, rec);
  }
  return results;
}

void ServeDaemon::concede_job(std::uint64_t key, Job& job,
                              const std::string& why) {
  const JobPaths paths = job_paths(opt_.jobs_dir, key);
  std::map<std::size_t, JournalRecord> results = collect_results(job);
  const std::vector<std::size_t> cands = candidates_for(job.spec);
  std::size_t synthesized = 0;
  for (std::size_t v : cands) {
    if (results.count(v)) continue;
    // Pure struct assembly, maximally pessimistic, explicitly typed —
    // never silence.
    JournalRecord rec;
    rec.finding.net = v;
    mark_pessimistic(rec.finding, FindingStatus::kShardCrashed, tech_.vdd);
    rec.finding.error_code = StatusCode::kWorkerCrashed;
    rec.finding.error = "conceded by serve daemon: " + why;
    results.emplace(v, std::move(rec));
    ++synthesized;
  }
  std::vector<const JournalRecord*> recs;
  recs.reserve(results.size());
  for (const auto& [net, rec] : results) recs.push_back(&rec);
  try {
    ResultJournal::write_atomic(paths.journal, recs, job.spec.options_hash());
  } catch (const std::exception& e) {
    logf(LogLevel::kError, "serve: conceding %s: %s",
         job_key_hex(key).c_str(), e.what());
  }
  ::unlink(journal_insurance_path(paths.journal).c_str());

  char summary[256];
  std::snprintf(summary, sizeof(summary),
                "victims=%zu conceded=%zu reason=%s", results.size(),
                synthesized, serve_escape(why).c_str());
  std::string derr;
  if (!write_done_file(paths.done, key, JobState::kConceded, summary, &derr))
    logf(LogLevel::kError, "serve: %s", derr.c_str());
  job.state = JobState::kConceded;
  job.terminal_summary = summary;
  queue_.erase(key);
  governor_.release(key);
  logf(LogLevel::kWarn, "serve: job %s conceded: %s",
       job_key_hex(key).c_str(), why.c_str());
  finalize_terminal(key, job);
}

void ServeDaemon::finalize_terminal(std::uint64_t key, Job& job) {
  // The on-disk journal is the authority on what the job produced; the
  // live findings map may have holes (resumed victims are merged without
  // re-running, so the runner never re-streams them).
  const JobPaths paths = job_paths(opt_.jobs_dir, key);
  ResultJournal::LoadResult prior = ResultJournal::load(paths.journal);
  if (prior.has_header && prior.header_hash == job.spec.options_hash())
    for (const auto& rec : prior.records)
      job.findings[rec.finding.net] = journal_encode(rec);

  const std::string hex = job_key_hex(key);
  const std::string verdict =
      job.state == JobState::kConceded ? "conceded" : "done";
  for (Client& c : clients_) {
    if (c.fd < 0 || !c.watching.count(key)) continue;
    auto& sent = c.sent[key];
    for (const auto& [net, payload] : job.findings)
      if (sent.insert(net).second)
        send_frame(c, WireType::kJobFinding, hex + " " + payload);
    send_frame(c, WireType::kJobDone,
               hex + " " + verdict + " " + job.terminal_summary);
  }
}

void ServeDaemon::attempt_failed(std::uint64_t key, Job& job, double now,
                                 const std::string& why) {
  const long retries =
      job.spec.retries >= 0 ? job.spec.retries : opt_.default_retries;
  const std::size_t allowed = static_cast<std::size_t>(retries) + 1;
  logf(LogLevel::kWarn, "serve: job %s attempt %zu/%zu failed: %s",
       job_key_hex(key).c_str(), job.attempts, allowed, why.c_str());
  if (job.attempts >= allowed) {
    char reason[192];
    std::snprintf(reason, sizeof(reason),
                  "retry budget exhausted after %zu attempts (last: %s)",
                  job.attempts, why.c_str());
    concede_job(key, job, reason);
    return;
  }
  job.state = JobState::kBackoff;
  queue_.push_backoff(key, job.attempts, now, opt_.backoff);
}

void ServeDaemon::reap_runners(double now) {
  for (auto& [key, job] : jobs_) {
    if (job.pid <= 0) continue;
    subprocess::ExitStatus status;
    if (!subprocess::try_wait(job.pid, &status)) continue;

    // Drain any frames the runner wrote right before exiting.
    if (job.pipe_fd >= 0) {
      handle_runner_frames(job, now);
      if (job.pipe_fd >= 0) {
        ::close(job.pipe_fd);
        job.pipe_fd = -1;
      }
    }
    const pid_t pid = job.pid;
    job.pid = -1;
    ::kill(-pid, SIGKILL);  // straggler lease holders of a crashed runner
    const JobPaths paths = job_paths(opt_.jobs_dir, key);
    ::unlink(paths.pid.c_str());
    governor_.release(key);

    // The done file is authoritative even when the exit status is not
    // clean: a runner that finalized its journal and durable marker, then
    // lost a race with a shed SIGTERM (or a drain kill), still finished
    // its job — re-running it would only redo completed work.
    std::uint64_t dkey = 0;
    JobState dstate = JobState::kDone;
    std::string dsummary;
    if (load_done_file(paths.done, &dkey, &dstate, &dsummary) &&
        dkey == key) {
      job.shed_pending = false;
      job.state = dstate;
      job.terminal_summary = dsummary;
      logf(LogLevel::kInfo, "serve: job %s done (%s)",
           job_key_hex(key).c_str(), dsummary.c_str());
      finalize_terminal(key, job);
    } else if (job.shed_pending) {
      // Shed under memory pressure: this termination was the daemon's
      // doing, not the job's failure, so the attempt is refunded and the
      // job goes back to the FIFO *head* with its original enqueue time
      // (aging will promote it once pressure clears).
      job.shed_pending = false;
      if (job.attempts > 0) --job.attempts;
      std::string werr;
      if (!write_spec_file(paths.spec, job.spec, job.attempts, &werr))
        logf(LogLevel::kWarn, "serve: cannot refund attempt for %s: %s",
             job_key_hex(key).c_str(), werr.c_str());
      job.state = JobState::kQueued;
      queue_.push_front(key);
      logf(LogLevel::kInfo,
           "serve: job %s shed under memory pressure; requeued with "
           "attempt count intact (%zu)",
           job_key_hex(key).c_str(), job.attempts);
    } else {
      const std::string why =
          !job.kill_reason.empty() ? job.kill_reason : status.describe();
      attempt_failed(key, job, now, why);
    }
  }
}

void ServeDaemon::supervise(double now) {
  for (auto& [key, job] : jobs_) {
    if (job.pid <= 0 || job.kill_sent) continue;
    if (job.shed_pending) {
      // Already SIGTERMed by the shed path; only the SIGKILL escalation
      // applies (deadline/stall verdicts would steal the refund).
      if (now - job.shed_sent_ms > kShedEscalateMs) kill_runner(job);
      continue;
    }
    const double deadline = job.spec.deadline_ms >= 0.0
                                ? job.spec.deadline_ms
                                : opt_.default_deadline_ms;
    if (deadline > 0.0 && now - job.launched_ms > deadline) {
      job.kill_reason = "per-attempt deadline exceeded";
      kill_runner(job);
      continue;
    }
    if (!job.heard_any) {
      // Silent startup phase (pruning, characterization): only the long
      // grace applies until the first heartbeat or finding.
      if (opt_.runner_grace_ms > 0.0 &&
          now - job.launched_ms > opt_.runner_grace_ms) {
        job.kill_reason = "no heartbeat within the startup grace period";
        kill_runner(job);
      }
      continue;
    }
    const double stall = 10.0 * job.spec.heartbeat_ms;
    if (stall > 0.0 && now - job.last_heard_ms > stall) {
      job.kill_reason = "runner heartbeat silence (presumed wedged)";
      kill_runner(job);
    }
  }
}

void ServeDaemon::maybe_shed(double now) {
  if (opt_.global_mem_soft_mb <= 0.0) return;
  if (effective_rss_mb() <= opt_.global_mem_soft_mb) return;
  if (now - last_shed_ms_ < kShedHysteresisMs) return;

  // Shed only while >= 2 runners are live: with one job left, killing it
  // would just thrash (the launch gate already stalls new launches, and
  // per-cluster budgets inside the runner bound its growth).
  Job* youngest = nullptr;
  std::uint64_t youngest_key = 0;
  std::size_t running = 0;
  for (auto& [key, job] : jobs_) {
    if (job.pid <= 0 || job.kill_sent || job.shed_pending) continue;
    ++running;
    if (!youngest || job.launched_ms > youngest->launched_ms) {
      youngest = &job;
      youngest_key = key;
    }
  }
  if (running < 2 || !youngest) return;

  // SIGTERM the runner group, not SIGKILL: the lease coordinator dies
  // quickly (default disposition), the journal's insurance file keeps
  // the progress, and a runner that was one write away from finishing may
  // still finalize — the reap path honors its done file either way.
  logf(LogLevel::kWarn,
       "serve: RSS %.0f MiB over soft budget %.0f MiB; shedding youngest "
       "job %s back to queued",
       effective_rss_mb(), opt_.global_mem_soft_mb,
       job_key_hex(youngest_key).c_str());
  youngest->shed_pending = true;
  youngest->shed_sent_ms = now;
  youngest->kill_reason = "shed under memory pressure";
  ::kill(-youngest->pid, SIGTERM);
  ::kill(youngest->pid, SIGTERM);
  last_shed_ms_ = now;
}

void ServeDaemon::schedule(double now) {
  for (;;) {
    std::size_t running = 0;
    for (const auto& [key, job] : jobs_)
      if (job.pid > 0) ++running;
    if (running >= opt_.max_running) return;
    if (!memory_gate_open()) return;  // stays queued; retried next tick

    // Collect every runnable job and let the admission policy pick:
    // largest-fitting reservation under the governor, aging promotion,
    // plain FIFO when the budget is off (see serve/governor.h).
    std::vector<std::uint64_t> ready;
    queue_.ready_keys(now, &ready);
    std::vector<LaunchCandidate> cands;
    std::vector<std::uint64_t> stale;
    for (std::uint64_t key : ready) {
      auto it = jobs_.find(key);
      if (it == jobs_.end() || it->second.state == JobState::kDone ||
          it->second.state == JobState::kConceded || it->second.pid > 0) {
        stale.push_back(key);  // cancelled/terminal/running stale entry
        continue;
      }
      cands.push_back(LaunchCandidate{key, job_reserve_mb(it->second.spec),
                                      it->second.enqueued_ms});
    }
    for (std::uint64_t key : stale) queue_.take(key);

    const std::size_t pick =
        pick_admission(cands, now, opt_.age_promote_ms, governor_);
    if (pick == kNoAdmission) return;
    const std::uint64_t key = cands[pick].key;
    queue_.take(key);
    launch(key, jobs_.at(key), now);
  }
}

int ServeDaemon::run() {
  try {
    build_design();
  } catch (const std::exception& e) {
    logf(LogLevel::kError, "serve: startup failed: %s", e.what());
    return 2;
  }
  std::string err;
  if (!bind_socket(&err)) {
    logf(LogLevel::kError, "serve: %s", err.c_str());
    return 2;
  }
  if (!opt_.listen_address.empty()) {
    std::string bound;
    tcp_listen_fd_ = listen_tcp(opt_.listen_address,
                                daemon_tcp_path(opt_.jobs_dir), &bound, &err);
    if (tcp_listen_fd_ < 0) {
      logf(LogLevel::kError, "serve: %s", err.c_str());
      return 2;
    }
    subprocess::set_nonblocking(tcp_listen_fd_);
    logf(LogLevel::kInfo, "serve: TCP listener on %s", bound.c_str());
  }
  try {
    const subprocess::Pipe wake = subprocess::make_pipe();
    wake_read_fd_ = wake.read_fd;
    wake_write_fd_ = wake.write_fd;
  } catch (const std::exception& e) {
    logf(LogLevel::kError, "serve: %s", e.what());
    return 2;
  }
  subprocess::set_nonblocking(wake_read_fd_);
  subprocess::set_nonblocking(wake_write_fd_);
  g_wake_fd = wake_write_fd_;
  g_drain_requested = 0;

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &serve_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGCHLD, &sa, nullptr);
  subprocess::ignore_sigpipe();

  recover_jobs_dir();
  logf(LogLevel::kInfo, "serve: listening on %s (queue %zu, %zu runner%s)",
       opt_.socket_path.c_str(), opt_.queue_capacity, opt_.max_running,
       opt_.max_running == 1 ? "" : "s");

  for (;;) {
    const double now = now_ms();
    if (g_drain_requested && !draining_) {
      draining_ = true;
      drain_started_ms_ = now;
      logf(LogLevel::kInfo,
           "serve: drain requested; finishing running jobs "
           "(%zu queued job(s) persist for the next start)",
           queue_.size());
    }

    reap_runners(now);
    maybe_shed(now);
    supervise(now);
    police_clients(now);
    if (!draining_) {
      schedule(now);
    } else {
      std::size_t running = 0;
      for (const auto& [key, job] : jobs_)
        if (job.pid > 0) ++running;
      if (running == 0) break;
      if (opt_.drain_timeout_ms > 0.0 &&
          now - drain_started_ms_ > opt_.drain_timeout_ms) {
        logf(LogLevel::kWarn,
             "serve: drain timeout; killing %zu runner group(s) "
             "(their journals keep the progress)",
             running);
        for (auto& [key, job] : jobs_) {
          if (job.pid <= 0) continue;
          job.kill_reason = "killed by drain timeout";
          kill_runner(job);
        }
      }
    }

    // Poll set: listeners, wake pipe, clients, runner pipes.
    enum { kListen, kListenTcp, kWake, kClient, kRunner };
    struct Tag {
      int kind;
      std::size_t index;
      std::uint64_t key;
    };
    std::vector<pollfd> fds;
    std::vector<Tag> tags;
    fds.push_back({listen_fd_, POLLIN, 0});
    tags.push_back({kListen, 0, 0});
    if (tcp_listen_fd_ >= 0) {
      fds.push_back({tcp_listen_fd_, POLLIN, 0});
      tags.push_back({kListenTcp, 0, 0});
    }
    fds.push_back({wake_read_fd_, POLLIN, 0});
    tags.push_back({kWake, 0, 0});
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i].fd < 0) continue;
      short events = POLLIN;
      if (!clients_[i].outbuf.empty()) events |= POLLOUT;
      fds.push_back({clients_[i].fd, events, 0});
      tags.push_back({kClient, i, 0});
    }
    for (auto& [key, job] : jobs_) {
      if (job.pid <= 0 || job.pipe_fd < 0) continue;
      fds.push_back({job.pipe_fd, POLLIN, 0});
      tags.push_back({kRunner, 0, key});
    }

    const int rc = ::poll(fds.data(), fds.size(), 50);
    if (rc < 0 && errno != EINTR) {
      logf(LogLevel::kError, "serve: poll(): %s", std::strerror(errno));
      return 1;
    }
    if (rc <= 0) continue;

    // Client and runner events first, accepts last: a disconnect in this
    // same poll batch frees its slot before the connection-cap check
    // counts live clients, so a just-closed peer (the startup ready
    // probe, a one-shot status poll) can never bounce a new connection.
    const double after = now_ms();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      switch (tags[i].kind) {
        case kListen:
        case kListenTcp:
          break;  // second pass
        case kWake: {
          char buf[64];
          while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
          }
          break;
        }
        case kClient: {
          Client& c = clients_[tags[i].index];
          if (c.fd < 0) break;
          if (fds[i].revents & POLLOUT) flush_client(c);
          if (c.fd >= 0 && (fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
            handle_client_frames(c, after);
          break;
        }
        case kRunner: {
          auto it = jobs_.find(tags[i].key);
          if (it != jobs_.end() && it->second.pipe_fd >= 0)
            handle_runner_frames(it->second, after);
          break;
        }
      }
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (tags[i].kind == kListen)
        handle_listen(listen_fd_, /*tcp=*/false);
      else if (tags[i].kind == kListenTcp)
        handle_listen(tcp_listen_fd_, /*tcp=*/true);
    }
    clients_.erase(std::remove_if(clients_.begin(), clients_.end(),
                                  [](const Client& c) { return c.fd < 0; }),
                   clients_.end());
  }

  logf(LogLevel::kInfo, "serve: drained; exiting");
  return 0;
}

}  // namespace serve
}  // namespace xtv
