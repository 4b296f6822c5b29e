// Multi-host fan-out over TCP (DESIGN.md §14): the TCP transport of the
// lease coordinator (core/shard_exec.h).
//
// Two halves of one protocol:
//
//   RemoteExecutor — the coordinator side. Plugged into VerifierOptions::
//     remote_backend, it dials a fleet of xtv_worker processes over TCP,
//     replays the job spec to each (kWorkerSetup "<options hash>
//     <heartbeat ms> <spec text>"), and hands the connections to
//     run_leases(), which validates that every worker derives the *same
//     options-result hash* (a worker built from a different binary or
//     spec must refuse work, not silently produce incomparable findings)
//     and then leases contiguous work units (core/lease.h) to them. The
//     failure policy — lease expiry, retry elsewhere, concession, the
//     all-workers-lost local fallback — is the coordinator's, shared with
//     the forked `--processes` holders; the one table is DESIGN.md §14.
//     Workers lost are never replaced: the endpoint list is fixed.
//
//   run_worker — the worker serve loop behind the xtv_worker binary. It
//     binds a TCP listener (port 0 = ephemeral; the bound endpoint is
//     published atomically via --endpoint-file), accepts one coordinator
//     at a time, rebuilds the spec'd design locally (same generator
//     parameters -> same chip, so only the spec text crosses the wire),
//     answers kWorkerReady or a typed kWorkerReject, and then serves
//     units with the shared holder loop (serve_units) on the verifier's
//     own per-victim engine (ChipVerifier::Prepared). Its test hooks are
//     serve_units' (core/shard_exec.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/shard_exec.h"
#include "core/verifier.h"

namespace xtv {
namespace serve {

struct RemoteExecOptions {
  /// Worker endpoints ("host:port" / "tcp:host:port").
  std::vector<std::string> workers;
  /// Expected worker heartbeat period (ms, > 0), sent to each worker in
  /// the setup frame. Silence for 10x this expires the worker's leases;
  /// another 10x window closes the connection.
  double heartbeat_ms = 250.0;
  /// Victims per leased unit / lease-failure policy (core/lease.h).
  std::size_t unit_victims = 16;
  std::size_t max_unit_attempts = 4;
  double backoff_base_ms = 200.0;
  double backoff_max_ms = 5000.0;
  /// Per-worker connect + setup-handshake deadline (a worker rebuilds and
  /// characterizes the design before answering, so this is generous).
  double setup_timeout_ms = 60000.0;
  /// JobSpec::to_text() of the job — replayed to workers verbatim; each
  /// worker must derive from it the options hash verify() passes to run().
  std::string spec_text;
};

/// The coordinator's TCP transport. Stateless between runs; construct per
/// job.
class RemoteExecutor : public RemoteBackend {
 public:
  explicit RemoteExecutor(const RemoteExecOptions& options)
      : opt_(options) {}

  /// Runs `work` across the worker fleet through run_leases(), handing
  /// one record per eligible victim to `callbacks.on_result`. Never
  /// throws on worker failure: every victim settles as a real result, a
  /// local-fallback result, or an explicit concession.
  CoordinatorStats run(const std::vector<std::size_t>& work,
                       std::uint64_t options_hash,
                       const ShardCallbacks& callbacks) override;

  /// The last run's coordinator stats (connections, rejections, losses,
  /// lease expiries, local fallback, lease-table counters).
  const CoordinatorStats& remote_stats() const { return stats_; }

 private:
  RemoteExecOptions opt_;
  CoordinatorStats stats_;
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
