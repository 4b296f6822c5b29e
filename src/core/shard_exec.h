// Out-of-process victim execution: one lease coordinator for every
// backend that runs victims outside the caller's process (DESIGN.md §12,
// §14).
//
// The in-process thread pool (util/thread_pool.h) shares one address space:
// a single SIGSEGV in a numerical kernel — or an OOM kill — forfeits the
// whole run. The out-of-process backends move the blast radius from the
// run to the victim. Both run the same coordinator loop, run_leases():
//
//   holders     each holder is one connection carrying xwf1 frames
//               (core/wire.h) to a process that analyzes leased units:
//               a forked child of the coordinator (run_process_shards,
//               `--processes N`, one victim per unit) or a TCP xtv_worker
//               (serve/remote.h, `--workers`). A holder announces itself
//               with kWorkerReady "<options hash> <pid>" and then serves
//               kUnitAssign -> kUnitResult* + kUnitDone, heartbeating.
//   policy      the lease table (core/lease.h) is the only failure
//               policy: a holder that dies, drops its connection, corrupts
//               its stream, or goes silent for 10 heartbeat periods fails
//               its lease; the unit is retried elsewhere after a backoff,
//               and a unit that failed under two distinct holders (or
//               spent its attempts) is conceded in the coordinator —
//               Prepared::analyze(v, /*bound_only=*/true), stamped
//               FindingStatus::kShardCrashed / StatusCode::kWorkerCrashed.
//               Because forked units hold one victim, a holder's death
//               charges exactly the victim it held.
//   replacement a forked holder lost after its ready frame, with a lease
//               failed by the loss, is replaced by a fresh fork — so the
//               lease attempt budget bounds the respawns; a holder lost
//               before its ready frame is not, so a crash at startup
//               cannot become a fork loop. TCP workers are never
//               replaced. With every holder lost, the remaining victims
//               run locally in the coordinator.
//   settlement  the coordinator is a pure scheduler: every accepted,
//               conceded or locally run record goes to the caller's
//               on_result, which is verify()'s one sink (journal,
//               listener, merge map).
//
// Every victim is accounted for exactly once, and a crash-free run merges
// to a result bit-identical to the serial one (findings travel as
// hexfloat journal payloads end to end).
//
// Test hooks (env, all off in production):
//   Holder side (serve_units, so forked holders and xtv_worker alike):
//     XTV_TEST_CRASH_VICTIM=<net>       crash on reaching <net>
//     XTV_TEST_CRASH_MODE=abort|segv|fpe|exit42   (default abort)
//     XTV_TEST_CRASH_ONCE_FILE=<path>   crash only while <path> is absent
//     XTV_TEST_WORKER_CRASH_UNIT=<id>   _exit(42) on that unit's assign
//     XTV_TEST_WORKER_STALL_MS=<ms>     stall (heartbeats suppressed)
//                                       before the first unit
//     XTV_TEST_DROP_FRAME_EVERY=<n>     drop every n-th kUnitResult
//   Coordinator side:
//     XTV_TEST_SHARD_KILL_ON_START=<net>:<n>  SIGKILL the forked holder
//         just granted <net>'s unit, up to <n> times
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/journal.h"
#include "core/lease.h"
#include "core/wire.h"

namespace xtv {

/// Hooks the verifier passes in so the executors stay ignorant of the
/// analysis pipeline.
struct ShardCallbacks {
  /// Analyze one victim. `bound_only` requests the conservative Devgan
  /// bound (the concession). Returns nullopt when the victim turns out
  /// ineligible (no retained aggressors). Must catch its own analysis
  /// exceptions (returning a kFailed record) — an escaping exception is a
  /// holder crash.
  std::function<std::optional<JournalRecord>(std::size_t victim,
                                             bool bound_only)> analyze;
  /// Forked holders, once per fork before the unit loop: per-process setup
  /// (the RSS watchdog). May be null.
  std::function<void()> worker_init;
  /// Coordinator side, required: receives each record the moment it
  /// settles (accepted, conceded, or run locally) — settle order, not
  /// stable net order. Runs on the coordinator thread, serialized. Must
  /// not throw.
  std::function<void(JournalRecord)> on_result;
  /// Coordinator side, optional: liveness tick, once per poll-loop
  /// iteration (~50 ms). Rate-limit in the callee.
  std::function<void()> on_tick;
};

struct CoordinatorOptions {
  /// Holder heartbeat period (ms, > 0). Silence for 10x this expires the
  /// holder's leases; silence through another 10x window drops the
  /// holder (a forked one is SIGKILLed and replaced).
  double heartbeat_ms = 250.0;
  /// Per-holder deadline (ms) for the ready frame (a TCP worker rebuilds
  /// and characterizes the design before answering, so it is generous).
  double setup_timeout_ms = 60000.0;
  LeaseOptions lease;
  /// Options-result hash every holder's ready frame must echo.
  std::uint64_t options_hash = 0;
};

struct CoordinatorStats {
  std::size_t workers_connected = 0;  ///< ready frames accepted
  std::size_t workers_rejected = 0;   ///< typed kWorkerReject refusals
  /// Holders dropped: death, EOF, read error, corrupt stream, silent
  /// through probation, setup timeout, or unreachable at dial time.
  std::size_t workers_lost = 0;
  std::size_t lease_expiries = 0;     ///< heartbeat-silence lease failures
  std::size_t victims_local = 0;      ///< all-holders-lost local fallback
  LeaseTableStats lease;
};

/// One holder connection as the coordinator sees it.
struct HolderLink {
  std::string id;  ///< lease-holder identity: distinct per process and host
  int fd = -1;     ///< bidirectional xwf1 stream; < 0 = could not be opened
  pid_t pid = -1;  ///< a forked holder's pid (the kill-on-start hook's target)
};

/// Where the coordinator's holders come from.
class HolderFleet {
 public:
  virtual ~HolderFleet() = default;
  /// The initial holders. A link whose fd is < 0 counts as lost at once.
  virtual std::vector<HolderLink> open() = 0;
  /// Ends a holder's link for good (a forked holder is killed and reaped).
  virtual void close(const HolderLink& link) = 0;
  /// A fresh holder in place of one lost after its ready frame; a link
  /// with fd < 0 when the fleet cannot grow.
  virtual HolderLink replace() { return {}; }
};

/// The coordinator loop: leases `work` (victim nets, stable order) to the
/// fleet's holders until every victim settles, hands one record per
/// eligible victim to `callbacks.on_result`, and returns its stats.
/// Records of conceded victims arrive stamped kShardCrashed /
/// kWorkerCrashed. Never throws on holder failure.
CoordinatorStats run_leases(const std::vector<std::size_t>& work,
                            HolderFleet& fleet,
                            const CoordinatorOptions& options,
                            const ShardCallbacks& callbacks);

/// run_leases over `processes` forked holders (fewer when `work` is
/// smaller). Holders inherit the caller's address space — design,
/// extractor, characterization, Prepared — by fork without exec, stay in
/// the caller's process group, ignore SIGPIPE, and leave via _exit. The
/// caller must be single-threaded when this is invoked: fork duplicates
/// only the calling thread, and replacements fork mid-run.
CoordinatorStats run_process_shards(const std::vector<std::size_t>& work,
                                    std::size_t processes,
                                    const CoordinatorOptions& options,
                                    const ShardCallbacks& callbacks);

/// The holder side of the lease protocol, shared by forked holders and
/// xtv_worker: reads kUnitAssign frames from `fd` (frames already in
/// `decoder` first), analyzes each victim, streams kUnitResult frames
/// plus a closing kUnitDone, and heartbeats every `heartbeat_ms` from its
/// own thread. Returns at EOF, on a write failure, or on a corrupt
/// stream.
void serve_units(
    int fd, WireDecoder& decoder,
    const std::function<std::optional<JournalRecord>(std::size_t victim)>&
        analyze,
    double heartbeat_ms);

}  // namespace xtv
