// Leased work-unit bookkeeping: the one failure policy of every
// out-of-process backend (DESIGN.md §14).
//
// The lease coordinator (core/shard_exec.h) splits a run's un-journaled
// victims into contiguous stable-order *units* and leases each to exactly
// one holder at a time — a forked process (`--processes`, one victim per
// unit) or a TCP xtv_worker (`--workers`, `--unit-victims` per unit).
// This table is the pure bookkeeping core of that protocol — no sockets,
// no clocks of its own (callers pass `now_ms`), so every failure-policy
// decision is unit-testable deterministically:
//
//   ownership    a unit is kQueued, kLeased (by one holder, under one
//                attempt number), kQuarantined, or kDone; acquire() hands
//                out the lowest-id ready unit and bumps its attempt
//   idempotency  results and completions carry (unit, attempt); frames
//                from a lapsed lease — a partitioned-then-healed worker
//                flushing stale work — are classified kStale and dropped,
//                and a victim can settle at most once (kDuplicate)
//   finality     settled victims stay settled across reassignment: a
//                re-leased unit carries only its *remaining* victims, so
//                partial progress from a dead holder is never redone
//   backoff      a failed unit re-enters the queue after an exponential
//                per-unit backoff (base * 2^(failures-1), capped)
//   quarantine   retry elsewhere, then concede: a unit whose lease failed
//                under two distinct holders — or burned its attempt
//                budget — is quarantined; the caller collects its
//                remaining victims via take_quarantined() and concedes
//                them to the conservative bound (kShardCrashed) instead
//                of feeding a poison unit to the holders forever
//   short completion
//                a kUnitDone whose lease still has unsettled victims
//                (result frames were dropped in transit) requeues the
//                remainder immediately WITHOUT charging the holder a
//                failure — lost frames are a transport fault, not
//                evidence the unit kills workers
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace xtv {

struct LeaseOptions {
  /// Victims per work unit (the last unit takes the remainder).
  std::size_t unit_victims = 16;
  /// Total leases a unit may consume before it is quarantined.
  std::size_t max_unit_attempts = 4;
  /// Exponential re-lease backoff after a failure: the n-th failure
  /// delays the unit backoff_base_ms * 2^(n-1), capped at backoff_max_ms.
  double backoff_base_ms = 200.0;
  double backoff_max_ms = 5000.0;
};

/// One lease handed to a holder: the unit, the attempt number that every
/// result/done frame must echo, and the victims still unsettled.
struct LeaseAssignment {
  std::size_t unit = 0;
  std::size_t attempt = 0;
  std::vector<std::size_t> victims;
};

enum class LeaseVerdict {
  kAccepted,     ///< live lease, fresh victim — count it
  kStale,        ///< unit/attempt does not match the live lease — drop
  kDuplicate,    ///< victim already settled — drop
  kUnknown,      ///< unit id out of range or victim not a member — drop
};

struct LeaseTableStats {
  std::size_t leases = 0;             ///< acquire() grants
  std::size_t reassignments = 0;      ///< grants beyond a unit's first
  std::size_t failures = 0;           ///< fail_holder charges
  /// Distinct victims still unsettled in a lease when it failed (a unit's
  /// first failure charges its remainder; later ones can only hold a
  /// subset of it).
  std::size_t victims_charged = 0;
  std::size_t stale_frames = 0;       ///< result/done frames from lapsed leases
  std::size_t duplicate_results = 0;  ///< settled-victim re-deliveries
  std::size_t short_completions = 0;  ///< kUnitDone with victims missing
  std::size_t units_quarantined = 0;
};

class LeaseTable {
 public:
  /// Slices `work` (victim nets, stable order) into ceil(n/unit_victims)
  /// contiguous units.
  LeaseTable(const std::vector<std::size_t>& work, const LeaseOptions& opt);

  /// Every victim settled (results accepted, quarantine taken, or
  /// drained) — the run's exit condition.
  bool all_settled() const { return victims_settled_ == victims_total_; }

  /// Grants the lowest-id queued unit whose backoff has elapsed to
  /// `holder`, bumping its attempt. Returns false when nothing is ready
  /// (all leased, backing off, quarantined, or done). The scan starts at
  /// the first unfinished unit, so a sweep stays linear in units.
  bool acquire(const std::string& holder, double now_ms,
               LeaseAssignment* out);

  /// Classifies one result frame; on kAccepted the victim is settled and
  /// stays settled forever.
  LeaseVerdict result(std::size_t unit, std::size_t attempt,
                      std::size_t victim);

  /// Classifies a unit-done frame. A matching lease with unsettled
  /// victims left is a short completion: the remainder requeues
  /// immediately and no failure is charged.
  LeaseVerdict complete(std::size_t unit, std::size_t attempt,
                        double now_ms);

  /// Fails every unit leased to `holder` (holder death, lost connection,
  /// heartbeat silence): charges the holder, then requeues each unit with
  /// backoff or quarantines it once two distinct holders failed it or its
  /// attempt budget is spent.
  void fail_holder(const std::string& holder, double now_ms);

  /// Remaining victims of every unit quarantined since the last call;
  /// those victims are marked settled (the caller concedes them, so the
  /// table must not hand them out again).
  std::vector<std::size_t> take_quarantined();

  /// Every unsettled victim across queued/leased/backing-off units,
  /// marked settled — the all-holders-lost local fallback. Live leases
  /// are abandoned (late frames for them classify kStale).
  std::vector<std::size_t> drain_remaining();

  const LeaseTableStats& stats() const { return stats_; }

 private:
  enum class UnitState { kQueued, kLeased, kQuarantined, kDone };

  struct Unit {
    std::vector<std::size_t> victims;      ///< original stable-order slice
    std::set<std::size_t> remaining;       ///< not yet settled
    UnitState state = UnitState::kQueued;
    std::size_t attempt = 0;               ///< leases granted so far
    std::string holder;                    ///< live lease holder
    std::set<std::string> failed_holders;  ///< distinct holders it died under
    std::size_t failures = 0;
    double backoff_until_ms = 0.0;
  };

  void fail_locked(std::size_t unit, double now_ms);

  LeaseOptions opt_;
  std::vector<Unit> units_;
  std::map<std::size_t, std::size_t> victim_unit_;  ///< victim -> unit id
  std::size_t victims_total_ = 0;
  std::size_t victims_settled_ = 0;
  std::size_t first_open_ = 0;  ///< every unit below this one is kDone
  std::vector<std::size_t> quarantined_;  ///< quarantined, not yet taken
  LeaseTableStats stats_;
};

}  // namespace xtv
