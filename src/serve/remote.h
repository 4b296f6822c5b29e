// Fault-tolerant multi-host shard fan-out (DESIGN.md §14).
//
// Two halves of one protocol:
//
//   RemoteExecutor — the coordinator. Plugged into VerifierOptions::
//     remote_backend, it dials a fleet of xtv_worker processes over TCP,
//     replays the job spec to each (kWorkerSetup), validates that every
//     worker derives the *same options-result hash* (a worker built from
//     a different binary or spec must refuse work, not silently produce
//     incomparable findings), and then leases contiguous work units
//     (serve/lease.h) to idle workers. Results stream back as journal
//     payloads — the same hexfloat codec the process shards use — so a
//     crash-free multi-host run merges bit-identical to the single-host
//     one.
//
//   run_worker — the worker serve loop behind the xtv_worker binary. It
//     binds a TCP listener (port 0 = ephemeral; the bound endpoint is
//     published atomically via --endpoint-file), accepts one coordinator
//     at a time, rebuilds the spec'd design locally (same generator
//     parameters -> same chip, so only the spec text crosses the wire),
//     and analyzes assigned victims with the verifier's own per-victim
//     engine (ChipVerifier::Prepared).
//
// Failure policy, in one table:
//
//   worker connection lost      fail its leases -> backoff requeue
//   heartbeat silence (10x)     fail its leases; worker kept connected
//                               and re-admitted on any fresh frame
//   silence persists (another   close + mark dead — a wedged-forever
//     10x window)               worker must not hold a poll slot
//   unit died on 2 distinct     quarantine: concede its remaining victims
//     holders (or attempt       locally as kShardCrashed with the
//     budget burned)            conservative Devgan bound (PR 6 ladder)
//   late/duplicate frames       (unit, attempt) mismatch -> dropped
//   options hash mismatch       typed kWorkerReject; worker never leased
//   ALL workers dead            degrade gracefully: remaining victims run
//                               local in-process, every victim still
//                               lands in an explicit FindingStatus
//
// Test hooks (env, all off in production):
//   XTV_TEST_WORKER_CRASH_UNIT=<id>   worker _exits on that unit's assign
//   XTV_TEST_WORKER_STALL_MS=<ms>     worker stalls (heartbeats
//                                     suppressed) before its first unit
//   XTV_TEST_DROP_FRAME_EVERY=<n>     worker drops every n-th kUnitResult
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/journal.h"
#include "core/shard_exec.h"
#include "core/verifier.h"
#include "serve/lease.h"

namespace xtv {
namespace serve {

struct RemoteExecOptions {
  /// Worker endpoints ("host:port" / "tcp:host:port").
  std::vector<std::string> workers;
  /// Expected worker heartbeat period (ms), sent to each worker in the
  /// setup frame. Silence for 10x this expires the worker's leases;
  /// another 10x window closes the connection. 0 disables stall eviction.
  double heartbeat_ms = 250.0;
  /// Victims per leased unit / lease-failure policy (serve/lease.h).
  std::size_t unit_victims = 16;
  std::size_t max_unit_attempts = 4;
  double backoff_base_ms = 200.0;
  double backoff_max_ms = 5000.0;
  /// Per-worker connect + setup-handshake deadline (a worker rebuilds and
  /// characterizes the design before answering, so this is generous).
  double setup_timeout_ms = 60000.0;
  /// Base journal path; the coordinator appends accepted results to
  /// `<base>.shard0` (flush-every-1) as crash insurance, exactly like a
  /// process-shard worker journal. Empty = no insurance journal.
  std::string journal_path;
  /// Options-result hash every worker must independently derive.
  std::uint64_t options_hash = 0;
  /// JobSpec::to_text() of the job — replayed to workers verbatim.
  std::string spec_text;
};

/// Coordinator-side stats, over and above the ShardExecStats mapping
/// (worker_crashes = connection losses + stall evictions, shard_restarts
/// = lease reassignments, victims_quarantined = quarantine concessions).
struct RemoteExecStats {
  std::size_t workers_connected = 0;  ///< setup handshakes completed
  std::size_t workers_rejected = 0;   ///< typed kWorkerReject refusals
  std::size_t workers_lost = 0;       ///< closed: EOF, error, corrupt, wedged
  std::size_t lease_expiries = 0;     ///< heartbeat-silence lease failures
  std::size_t victims_local = 0;      ///< all-workers-dead local fallback
  LeaseTableStats lease;
};

/// The coordinator. Stateless between runs; construct per job.
class RemoteExecutor : public RemoteBackend {
 public:
  explicit RemoteExecutor(const RemoteExecOptions& options)
      : opt_(options) {}

  /// Runs `work` across the worker fleet; returns one record per victim,
  /// keyed by net (exactly run_process_shards' contract — the verifier
  /// merges either backend's map the same way). Never throws on worker
  /// failure: every victim settles as a real result, a local-fallback
  /// result, or an explicit concession.
  std::map<std::size_t, JournalRecord> run(
      const std::vector<std::size_t>& work, const ShardCallbacks& callbacks,
      ShardExecStats* stats) override;

  const RemoteExecStats& remote_stats() const { return rstats_; }

 private:
  RemoteExecOptions opt_;
  RemoteExecStats rstats_;
};

struct WorkerOptions {
  /// Listen address, "host:port"; port 0 binds an ephemeral port.
  std::string listen = "127.0.0.1:0";
  /// When set, the bound "host:port\n" is published here atomically
  /// (util/atomic_file.h) — scripts and tests discover the ephemeral
  /// port by reading this file.
  std::string endpoint_file;
  /// Characterization cache file shared with the coordinator (optional;
  /// characterization is deterministic, the cache only saves time).
  std::string cell_cache;
  /// Serve this many coordinator connections, then return (0 = forever).
  /// Tests use 1-shot workers; production workers loop.
  std::size_t max_coordinators = 0;
};

/// The worker serve loop (blocks; the xtv_worker binary calls this).
/// Returns a process exit code: 0 on a clean max_coordinators exit,
/// nonzero when the listener cannot be bound.
int run_worker(const WorkerOptions& options);

}  // namespace serve
}  // namespace xtv
