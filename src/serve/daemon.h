// The verification service daemon (DESIGN.md §13).
//
// A long-lived process that owns one resident chip design and accepts
// verification jobs over a Unix-domain socket — and optionally a TCP
// listener (--listen host:port) — speaking the same xwf1 framing the
// lease holders use (core/wire.h). Each job is one ChipVerifier run,
// against the resident design or a per-job design reference carried in
// its spec; the daemon forks a single-purpose *job runner* per attempt,
// which executes verify() with forked lease holders (so a crashing
// victim costs the job only that victim) and streams per-victim findings
// back over a pipe as they certify. Up to
// --max-running runners execute concurrently under the cross-job
// ResourceGovernor (serve/governor.h).
//
// The robustness envelope:
//
//   admission   bounded queue; a full queue answers kJobRejected
//               ("queue-full") instead of growing without bound; specs
//               naming an unreadable design file or one larger than
//               --max-job-nets are rejected at admission
//   identity    job key = options hash of the spec'd options (mixed with
//               the design reference when one is set); the journal header
//               carries the bare options hash verify() stamps; resubmits
//               dedup onto the live (or finished) job and replay its
//               findings exactly once
//   retry       a dead/wedged/deadline-blown runner consumes one attempt;
//               the job waits out an exponential backoff, then relaunches
//               with resume=true so completed victims are never redone
//   concession  an exhausted retry budget never goes silent: the daemon
//               synthesizes pessimistic kShardCrashed records for every
//               unaccounted victim, finalizes the journal atomically, and
//               reports the job "conceded"
//   liveness    runners heartbeat through the lease coordinator's poll
//               loop; silence past 10x the heartbeat period (after a
//               startup grace covering the silent pruning phase) reaps
//               the runner's process group
//   memory      every launch debits a per-job reservation against the
//               --global-mem-soft-mb budget (largest-fitting job wins,
//               aging promotes skipped jobs — serve/governor.h); under
//               live RSS pressure the daemon *sheds* the youngest runner:
//               SIGTERM, attempt refunded, job back to queued at the
//               FIFO head — shrink the blast radius instead of OOMing
//   transport   TCP connections get per-connection read/write deadlines
//               (slow-loris eviction), an inbound buffer cap, a
//               connection cap answered with kJobRejected, idle
//               keepalive heartbeats, and latch-and-close on any corrupt
//               frame; framing and checksums are unchanged from the pipe
//   drain       SIGTERM/SIGINT stops admission, lets running jobs finish
//               (or kills them at the drain timeout — their journals keep
//               the progress), leaves queued jobs' spec files on disk for
//               the next start, and exits 0
//   recovery    startup sweeps a stale socket file (guarded by a
//               daemon.pid liveness check so two daemons never share a
//               jobs dir), then scans the jobs directory: finished jobs
//               are replayable, orphaned runners (from a SIGKILLed
//               daemon) are reaped, and interrupted jobs re-enter the
//               queue with their persisted attempt count — or are
//               conceded when the budget was already spent
//
// The daemon is deliberately single-threaded (one poll() loop): verify()
// in process mode forks, and fork duplicates only the calling thread, so
// a multi-threaded daemon could never safely launch in-process runners.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "chipgen/dsp_chip.h"
#include "core/wire.h"
#include "serve/governor.h"
#include "serve/job.h"
#include "serve/queue.h"

namespace xtv {
namespace serve {

struct DaemonOptions {
  std::string socket_path;  ///< Unix-domain listening socket
  std::string jobs_dir;     ///< spec/journal/done/pid files live here

  /// Optional TCP listener ("host:port"; port 0 = ephemeral — the bound
  /// endpoint is published to <jobs_dir>/daemon.tcp). Empty = Unix only.
  std::string listen_address;

  // --- Resident design (generated once at startup) ---
  std::size_t net_count = 800;
  std::size_t replicate_rows = 1;
  std::string cell_cache;  ///< characterization cache (empty = none)

  // --- Admission & scheduling ---
  std::size_t queue_capacity = 8;   ///< bounded admission queue
  std::size_t max_running = 1;      ///< concurrent job runners
  std::size_t default_processes = 2;  ///< lease holders when spec says 0
  double default_deadline_ms = 0.0;   ///< per-attempt wall clock (0 = off)
  long default_retries = 2;           ///< attempts after the first
  BackoffPolicy backoff;
  /// Largest per-job design accepted at admission (nets; 0 = unlimited).
  std::size_t max_job_nets = 50000;
  /// A queued job older than this is promoted ahead of better-packing
  /// candidates (anti-starvation; see serve/governor.h).
  double age_promote_ms = 5000.0;

  // --- Remote fan-out (DESIGN.md §14) ---
  /// xtv_worker endpoints ("host:port"). Non-empty routes every job's
  /// victims through the leased remote backend (serve/remote.h); the
  /// job runner degrades to local execution if every worker is lost.
  std::vector<std::string> workers;
  double worker_heartbeat_ms = 250.0;  ///< expected worker heartbeat period
  std::size_t unit_victims = 16;       ///< victims per leased work unit
  std::size_t max_unit_attempts = 4;   ///< lease attempts before quarantine

  // --- Supervision ---
  /// Startup grace before the stall check arms: a fresh runner is
  /// legitimately silent while pruning the coupling database.
  double runner_grace_ms = 30000.0;
  /// Cross-job memory budget (MiB; 0 = off): reservations gate launches,
  /// and live RSS above it sheds the youngest runner back to queued.
  double global_mem_soft_mb = 0.0;
  /// How long a drain waits for running jobs before SIGKILLing their
  /// process groups (0 = wait indefinitely).
  double drain_timeout_ms = 0.0;

  // --- TCP connection envelope ---
  std::size_t max_connections = 64;  ///< live client cap (Unix + TCP)
  /// A connection that stalls mid-frame (read side) or makes no write
  /// progress against a non-empty outbuf for this long is evicted (0 =
  /// never).
  double io_timeout_ms = 10000.0;
  /// Idle TCP connections get a kHeartbeat frame at this period so dead
  /// peers surface as write errors (0 = off; Unix sockets never need it).
  double keepalive_ms = 3000.0;
};

class ServeDaemon {
 public:
  explicit ServeDaemon(const DaemonOptions& options);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Builds the resident design, binds the socket, recovers the jobs
  /// directory, and serves until a drain completes. Returns the process
  /// exit code (0 on a clean drain).
  int run();

 private:
  struct Job {
    JobSpec spec;
    JobState state = JobState::kQueued;
    std::size_t attempts = 0;  ///< launches so far (persisted in the spec file)
    pid_t pid = -1;            ///< live runner (its own process group)
    int pipe_fd = -1;          ///< read end of the runner's frame pipe
    WireDecoder decoder;
    bool heard_any = false;    ///< a heartbeat/finding arrived this attempt
    double launched_ms = 0.0;
    double last_heard_ms = 0.0;
    double enqueued_ms = 0.0;  ///< when the job (re-)entered the queue (aging)
    double reserve_mb = 0.0;   ///< governor reservation while running
    bool kill_sent = false;    ///< SIGKILL issued; waiting for the reap
    bool shed_pending = false; ///< SIGTERMed under memory pressure; reap requeues
    double shed_sent_ms = 0.0; ///< when the shed SIGTERM went out (escalation)
    std::string kill_reason;   ///< why the supervisor killed it (for the retry log)
    std::string terminal_summary;
    /// Victim net -> journal payload, accumulated from live finding
    /// frames (and the final journal at terminal time). Feeds client
    /// replay so late subscribers miss nothing.
    std::map<std::size_t, std::string> findings;
  };

  struct Client {
    int fd = -1;
    bool tcp = false;          ///< TCP accept (gets keepalive + NODELAY)
    WireDecoder decoder;
    std::string outbuf;
    double last_rx_ms = 0.0;       ///< last byte read off the connection
    double last_tx_ms = 0.0;       ///< last frame queued for this client
    double last_progress_ms = 0.0; ///< last successful write() progress
    std::set<std::uint64_t> watching;  ///< job keys streamed to this client
    /// job key -> victims already sent: the exactly-once guard across
    /// replay and live streaming.
    std::map<std::uint64_t, std::set<std::size_t>> sent;
  };

  // Startup.
  void build_design();
  bool bind_socket(std::string* error);
  void recover_jobs_dir();

  // Event handling.
  void handle_listen(int listen_fd, bool tcp);
  void handle_client_frames(Client& c, double now);
  void on_submit(Client& c, const std::string& payload);
  void on_query(Client& c, const std::string& payload);
  void handle_runner_frames(Job& job, double now);
  void reap_runners(double now);
  void supervise(double now);
  void maybe_shed(double now);
  void police_clients(double now);
  void schedule(double now);

  // Job lifecycle.
  bool launch(std::uint64_t key, Job& job, double now);
  int runner_main(const Job& job, int write_fd);  // child side; never returns
  void attempt_failed(std::uint64_t key, Job& job, double now,
                      const std::string& why);
  void concede_job(std::uint64_t key, Job& job, const std::string& why);
  void finalize_terminal(std::uint64_t key, Job& job);
  std::map<std::size_t, JournalRecord> collect_results(const Job& job) const;
  std::vector<std::size_t> candidates_for(const JobSpec& spec);
  void kill_runner(Job& job);
  bool memory_gate_open() const;
  double job_reserve_mb(const JobSpec& spec) const;

  // Client plumbing.
  void send_frame(Client& c, WireType type, const std::string& payload);
  void flush_client(Client& c);
  void stream_finding(std::uint64_t key, Job& job, std::size_t net,
                      const std::string& payload);

  DaemonOptions opt_;

  // Resident design, shared by every forked runner via fork inheritance.
  Technology tech_;
  CellLibrary library_;
  CharacterizedLibrary chars_;
  Extractor extractor_;
  ChipDesign design_;

  int listen_fd_ = -1;
  int tcp_listen_fd_ = -1;
  int wake_read_fd_ = -1;   ///< self-pipe: signal handlers wake poll()
  int wake_write_fd_ = -1;
  bool draining_ = false;
  double drain_started_ms_ = -1.0;
  bool wrote_pid_file_ = false;  ///< we own <jobs_dir>/daemon.pid
  double last_shed_ms_ = -1e18;  ///< shed hysteresis clock

  AdmissionQueue queue_;
  ResourceGovernor governor_;
  std::map<std::uint64_t, Job> jobs_;
  std::vector<Client> clients_;
};

}  // namespace serve
}  // namespace xtv
