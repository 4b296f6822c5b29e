#include "core/lease.h"

#include <algorithm>

namespace xtv {

namespace {

/// Distinct holders a unit may fail under before it is quarantined:
/// retry once elsewhere, then concede. Holders are forked processes or
/// worker endpoints, so two workers on one machine count separately.
constexpr std::size_t kQuarantineDistinctHolders = 2;

}  // namespace

LeaseTable::LeaseTable(const std::vector<std::size_t>& work,
                       const LeaseOptions& opt)
    : opt_(opt) {
  if (opt_.unit_victims == 0) opt_.unit_victims = 1;
  if (opt_.max_unit_attempts == 0) opt_.max_unit_attempts = 1;
  for (std::size_t off = 0; off < work.size(); off += opt_.unit_victims) {
    Unit u;
    const std::size_t end = std::min(off + opt_.unit_victims, work.size());
    u.victims.assign(work.begin() + off, work.begin() + end);
    u.remaining.insert(u.victims.begin(), u.victims.end());
    for (std::size_t v : u.victims) victim_unit_[v] = units_.size();
    units_.push_back(std::move(u));
  }
  victims_total_ = work.size();
}

bool LeaseTable::acquire(const std::string& holder, double now_ms,
                         LeaseAssignment* out) {
  while (first_open_ < units_.size() &&
         units_[first_open_].state == UnitState::kDone)
    ++first_open_;
  for (std::size_t i = first_open_; i < units_.size(); ++i) {
    Unit& u = units_[i];
    if (u.state != UnitState::kQueued) continue;
    if (u.backoff_until_ms > now_ms) continue;
    u.state = UnitState::kLeased;
    u.holder = holder;
    ++u.attempt;
    ++stats_.leases;
    if (u.attempt > 1) ++stats_.reassignments;
    out->unit = i;
    out->attempt = u.attempt;
    out->victims.assign(u.remaining.begin(), u.remaining.end());
    return true;
  }
  return false;
}

LeaseVerdict LeaseTable::result(std::size_t unit, std::size_t attempt,
                                std::size_t victim) {
  if (unit >= units_.size()) return LeaseVerdict::kUnknown;
  Unit& u = units_[unit];
  const auto member = victim_unit_.find(victim);
  if (member == victim_unit_.end() || member->second != unit)
    return LeaseVerdict::kUnknown;
  if (u.state != UnitState::kLeased || attempt != u.attempt) {
    ++stats_.stale_frames;
    return LeaseVerdict::kStale;
  }
  if (!u.remaining.erase(victim)) {
    ++stats_.duplicate_results;
    return LeaseVerdict::kDuplicate;
  }
  ++victims_settled_;
  return LeaseVerdict::kAccepted;
}

LeaseVerdict LeaseTable::complete(std::size_t unit, std::size_t attempt,
                                  double now_ms) {
  if (unit >= units_.size()) return LeaseVerdict::kUnknown;
  Unit& u = units_[unit];
  if (u.state != UnitState::kLeased || attempt != u.attempt) {
    ++stats_.stale_frames;
    return LeaseVerdict::kStale;
  }
  u.holder.clear();
  if (u.remaining.empty()) {
    u.state = UnitState::kDone;
    return LeaseVerdict::kAccepted;
  }
  // Short completion: the worker finished the unit but some result
  // frames never arrived. Requeue what's left right away — dropped
  // frames are a transport fault, not evidence against the holder.
  ++stats_.short_completions;
  u.state = UnitState::kQueued;
  u.backoff_until_ms = now_ms;
  return LeaseVerdict::kAccepted;
}

void LeaseTable::fail_locked(std::size_t unit, double now_ms) {
  Unit& u = units_[unit];
  ++stats_.failures;
  if (++u.failures == 1) stats_.victims_charged += u.remaining.size();
  if (!u.holder.empty()) u.failed_holders.insert(u.holder);
  u.holder.clear();
  if (u.failed_holders.size() >= kQuarantineDistinctHolders ||
      u.attempt >= opt_.max_unit_attempts) {
    u.state = UnitState::kQuarantined;
    ++stats_.units_quarantined;
    quarantined_.push_back(unit);
    return;
  }
  double delay = opt_.backoff_base_ms;
  for (std::size_t i = 1; i < u.failures && delay < opt_.backoff_max_ms; ++i)
    delay *= 2.0;
  u.state = UnitState::kQueued;
  u.backoff_until_ms = now_ms + std::min(delay, opt_.backoff_max_ms);
}

void LeaseTable::fail_holder(const std::string& holder, double now_ms) {
  for (std::size_t i = first_open_; i < units_.size(); ++i)
    if (units_[i].state == UnitState::kLeased && units_[i].holder == holder)
      fail_locked(i, now_ms);
}

std::vector<std::size_t> LeaseTable::take_quarantined() {
  std::vector<std::size_t> out;
  for (std::size_t unit : quarantined_) {
    Unit& u = units_[unit];
    u.state = UnitState::kDone;
    // Stable victim order within the unit (remaining is an ordered set).
    for (std::size_t v : u.remaining) out.push_back(v);
    victims_settled_ += u.remaining.size();
    u.remaining.clear();
  }
  quarantined_.clear();
  return out;
}

std::vector<std::size_t> LeaseTable::drain_remaining() {
  std::vector<std::size_t> out;
  for (Unit& u : units_) {
    if (u.state == UnitState::kDone) continue;
    u.state = UnitState::kDone;
    u.holder.clear();
    // Live leases are abandoned: attempt stays where it was, so any late
    // frame re-checks against a kDone unit and classifies kStale.
    for (std::size_t v : u.remaining) out.push_back(v);
    victims_settled_ += u.remaining.size();
    u.remaining.clear();
  }
  quarantined_.clear();
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace xtv
