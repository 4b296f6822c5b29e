// Pure helpers of the xtv benchmark: order statistics, span self time,
// the cpu-masked findings digest, and the closed-loop job ledger. Nothing
// here touches the clock or the verifier, so every rule the benchmark's
// numbers rest on is unit-tested in isolation (perfbench/tests).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/journal.h"

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; the
/// same rule as numpy's default and Python's statistics "inclusive"
/// method. An empty sample reads 0.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Samples of an n-sample set that lie strictly beyond its q-quantile by
/// nearest rank: the rank is ceil(q * n), so n - ceil(q * n) samples
/// exceed it.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(n) - 1e-9);
  return n - static_cast<std::size_t>(std::max(rank, 0.0));
}

/// The highest quantile among `candidates` that keeps at least
/// `min_beyond` samples beyond it (so a tail percentile is backed by data,
/// not by one outlier). Falls back to the median when none qualifies.
inline double highest_supported_quantile(std::size_t n,
                                         const std::vector<double>& candidates,
                                         std::size_t min_beyond = 10) {
  double best = 0.5;
  for (double q : candidates)
    if (q > best && samples_beyond(n, q) >= min_beyond) best = q;
  return best;
}

/// One timed interval of the traced run. `parent` indexes the enclosing
/// span in the same vector (-1 = root). Times are seconds on one clock.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  long parent = -1;
  double cpu = 0.0;          ///< thread CPU seconds spent inside the span
  std::size_t victim = 0;    ///< victim net (or job index) the span serves
};

/// Self time of every span: its duration minus the part of it covered by
/// its children (children are clipped to the parent and overlapping
/// children are counted once).
inline std::vector<double> span_self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start, hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

/// Journal payload of a record with its one nondeterministic column
/// (cpu_seconds) zeroed: every analytical field must match bitwise across
/// serial, threaded, traced and served runs of one design.
inline std::string masked_payload(const xtv::JournalRecord& record) {
  xtv::JournalRecord copy = record;
  copy.finding.cpu_seconds = 0.0;
  return xtv::journal_encode(copy);
}

/// FNV-1a 64 over the masked payloads in victim-net order.
inline std::uint64_t findings_digest(
    const std::map<std::size_t, xtv::JournalRecord>& records) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [net, rec] : records) {
    const std::string p = masked_payload(rec) + "\n";
    for (unsigned char c : p) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Closed-loop job ledger: `clients` connections share `jobs` job indices;
/// a client asks for its next job only after its previous one ended, so
/// at most `clients` jobs are ever outstanding. Each job's frame times
/// (seconds on one clock) are recorded as they arrive. Thread-safe.
class ClosedLoopLedger {
 public:
  struct Job {
    std::size_t client = 0;
    double submit = -1.0;         ///< kJobSubmit sent
    double accepted = -1.0;       ///< kJobAccepted received
    double first_finding = -1.0;  ///< first kJobFinding received
    double last_finding = -1.0;   ///< latest kJobFinding received
    double terminal = -1.0;       ///< kJobDone received (or failure noticed)
    bool ok = false;              ///< ended kDone without a transport error
  };

  ClosedLoopLedger(std::size_t jobs, std::size_t clients)
      : jobs_(jobs), outstanding_(clients, -1) {}

  /// Next job index for `client`, or -1 when every job was handed out.
  /// A client that still owns an unfinished job gets -1 too: the loop is
  /// closed, so that is a scheduler bug the caller must not paper over.
  long next(std::size_t client, double now) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (client >= outstanding_.size() || outstanding_[client] >= 0) return -1;
    if (handed_ >= jobs_.size()) return -1;
    const long j = static_cast<long>(handed_++);
    jobs_[static_cast<std::size_t>(j)].client = client;
    jobs_[static_cast<std::size_t>(j)].submit = now;
    outstanding_[client] = j;
    peak_outstanding_ = std::max(peak_outstanding_, ++live_);
    return j;
  }

  void accepted(std::size_t job, double now) {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.at(job).accepted = now;
  }

  void finding(std::size_t job, double now) {
    std::lock_guard<std::mutex> lock(mutex_);
    Job& j = jobs_.at(job);
    if (j.first_finding < 0.0) j.first_finding = now;
    j.last_finding = now;
  }

  /// Ends `job`, freeing its client for the next one.
  void finish(std::size_t job, double now, bool ok) {
    std::lock_guard<std::mutex> lock(mutex_);
    Job& j = jobs_.at(job);
    j.terminal = now;
    j.ok = ok;
    if (outstanding_.at(j.client) == static_cast<long>(job)) {
      outstanding_[j.client] = -1;
      --live_;
    }
  }

  std::vector<Job> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return jobs_;
  }

  std::size_t peak_outstanding() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_outstanding_;
  }

  /// Submit-to-terminal seconds of every ended job, in job order.
  static std::vector<double> turnarounds(const std::vector<Job>& jobs) {
    std::vector<double> out;
    for (const Job& j : jobs)
      if (j.submit >= 0.0 && j.terminal >= 0.0) out.push_back(j.terminal - j.submit);
    return out;
  }

  /// First submit to last terminal (0 when nothing ended).
  static double makespan(const std::vector<Job>& jobs) {
    double first = -1.0, last = -1.0;
    for (const Job& j : jobs) {
      if (j.submit >= 0.0 && (first < 0.0 || j.submit < first)) first = j.submit;
      if (j.terminal > last) last = j.terminal;
    }
    return first >= 0.0 && last >= first ? last - first : 0.0;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Job> jobs_;
  std::vector<long> outstanding_;  ///< per client: its open job, or -1
  std::size_t handed_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_outstanding_ = 0;
};

}  // namespace perfbench
