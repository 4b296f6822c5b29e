// Memory accounting and admission control for cluster analyses.
//
// A pathological long-chain cluster can ask SyMPVL for a Krylov basis (or
// the transient engines for waveform storage) far beyond what the host can
// give; without a budget the kernel's OOM killer ends the whole run and
// every certified finding with it. This layer makes memory a first-class,
// *recoverable* resource:
//
//  - ClusterScope: a thread-local accounting arena. While a worker holds a
//    scope, every tracked allocation (DenseMatrix storage, Krylov block
//    vectors, waveform samples) charges bytes against it. An optional hard
//    limit turns a breach into the typed, ladder-recoverable
//    StatusCode::kResourceExceeded — the verifier degrades the victim to
//    the conservative Devgan bound (FindingStatus::kResourceBound) instead
//    of dying.
//  - MemCharge / ScopedCharge: RAII charge handles. MemCharge is embedded
//    in owning containers (DenseMatrix); ScopedCharge accumulates
//    incremental growth (Krylov sweeps, waveform appends).
//  - MemoryGovernor: the process-wide memory-pressure flag admission
//    control reads; scopes never touch it, so neither opening a scope nor
//    charging one takes a process-global lock.
//  - RssWatchdog: a sampling thread that reads /proc/self/statm and raises
//    the governor's pressure flag when resident set crosses a soft limit;
//    the verifier sheds the largest queued clusters first in response.
//
// Charge-path cost: two relaxed atomic RMWs on the owning scope (used_,
// peak_) — no process-global contention.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>

namespace xtv::resource {

/// Current resident-set size of this process in bytes, read from
/// /proc/self/statm. Returns 0 when the proc interface is unavailable
/// (non-Linux hosts), which disables RSS-based shedding gracefully.
std::size_t read_rss_bytes();

/// Thread-local accounting arena for one cluster analysis. Nestable: the
/// constructor saves the previous current scope and the destructor
/// restores it. `limit_bytes == 0` means account-only (never throws).
class ClusterScope {
 public:
  explicit ClusterScope(std::size_t limit_bytes = 0,
                        const char* label = "cluster");
  ~ClusterScope();

  ClusterScope(const ClusterScope&) = delete;
  ClusterScope& operator=(const ClusterScope&) = delete;

  std::size_t used() const { return used_.load(std::memory_order_relaxed); }
  std::size_t peak() const { return peak_.load(std::memory_order_relaxed); }
  std::size_t limit() const { return limit_; }
  const char* label() const { return label_; }

  /// The scope charges on this thread are currently billed to (nullptr
  /// when no scope is active — charges then become no-ops).
  static ClusterScope* current();

  /// Suspends limit enforcement (not accounting) on this thread while
  /// alive. Used around the Devgan-bound fallback so the rung that "cannot
  /// fail" truly cannot: computing the bound for an over-budget cluster
  /// must not itself re-raise kResourceExceeded.
  class Exemption {
   public:
    Exemption();
    ~Exemption();
    Exemption(const Exemption&) = delete;
    Exemption& operator=(const Exemption&) = delete;

   private:
    ClusterScope* scope_;
  };

  /// Detaches this thread from its current scope entirely while alive:
  /// allocations made under a Suspension charge no scope at all. Used when
  /// copying payloads into caches that outlive the victim (the reduced-
  /// model cache): a MemCharge bound to the victim's scope would dangle
  /// once that scope dies, so cache-owned storage must bind to none.
  class Suspension {
   public:
    Suspension();
    ~Suspension();
    Suspension(const Suspension&) = delete;
    Suspension& operator=(const Suspension&) = delete;

   private:
    ClusterScope* saved_;
  };

 private:
  friend class MemCharge;
  friend class ScopedCharge;

  /// Adds `bytes`; throws NumericalError(kResourceExceeded) on limit
  /// breach (charge rolled back first, so accounting stays exact).
  void charge(std::size_t bytes);
  void release(std::size_t bytes);
  bool exempt() const { return exempt_depth_ > 0; }

  std::atomic<std::size_t> used_{0};
  std::atomic<std::size_t> peak_{0};
  std::size_t limit_ = 0;
  const char* label_ = "cluster";
  int exempt_depth_ = 0;  // touched only by the owning thread
  ClusterScope* prev_ = nullptr;
};

/// RAII charge for a single fixed-size allocation, embedded in owning
/// containers. Remembers which scope it charged so release is exact even
/// if the object outlives the scope's tenure as `current()` (the scope
/// object itself must outlive the charge, which the verifier guarantees:
/// findings keep no matrices alive past analyze_victim).
class MemCharge {
 public:
  MemCharge() = default;
  explicit MemCharge(std::size_t bytes);
  ~MemCharge() { reset(); }

  MemCharge(const MemCharge& other) : MemCharge(other.bytes_) {}
  MemCharge& operator=(const MemCharge& other) {
    if (this != &other) {
      MemCharge tmp(other.bytes_);  // may throw before we give anything up
      reset();
      swap(tmp);
    }
    return *this;
  }
  MemCharge(MemCharge&& other) noexcept { swap(other); }
  MemCharge& operator=(MemCharge&& other) noexcept {
    if (this != &other) {
      reset();
      swap(other);
    }
    return *this;
  }

  std::size_t bytes() const { return bytes_; }

 private:
  void reset();
  void swap(MemCharge& other) {
    std::swap(scope_, other.scope_);
    std::swap(bytes_, other.bytes_);
  }

  ClusterScope* scope_ = nullptr;
  std::size_t bytes_ = 0;
};

/// RAII accumulator for incrementally grown storage (Krylov blocks,
/// waveform samples). Binds to the current scope on the first add() and
/// releases the running total on destruction.
class ScopedCharge {
 public:
  ScopedCharge() = default;
  ~ScopedCharge();

  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;

  /// Charges `bytes` more; throws kResourceExceeded on breach.
  void add(std::size_t bytes);

  /// Returns `bytes` of the running total early (e.g. a reservation that
  /// turned out larger than the final extent). Clamped to the total; the
  /// peak already recorded is intentionally untouched.
  void shrink(std::size_t bytes);

  std::size_t total() const { return total_; }

 private:
  ClusterScope* scope_ = nullptr;
  std::size_t total_ = 0;
};

/// The process-wide memory-pressure flag that drives admission control.
class MemoryGovernor {
 public:
  static MemoryGovernor& instance();

  /// True when the watchdog (or a forced override) reports pressure; the
  /// verifier responds by shedding its largest queued clusters to bounds.
  bool under_pressure() const {
    return forced_pressure_.load(std::memory_order_relaxed) ||
           watchdog_pressure_.load(std::memory_order_relaxed);
  }

  void set_watchdog_pressure(bool on) {
    watchdog_pressure_.store(on, std::memory_order_relaxed);
  }

  /// Test/chaos hook: pins under_pressure() to true regardless of RSS.
  void force_pressure(bool on) {
    forced_pressure_.store(on, std::memory_order_relaxed);
  }

 private:
  MemoryGovernor() = default;

  std::atomic<bool> watchdog_pressure_{false};
  std::atomic<bool> forced_pressure_{false};
};

/// Sampling thread that compares resident-set size against a soft limit
/// and toggles the governor's pressure flag. Joined (and the flag
/// cleared) on destruction, so its lifetime brackets one verify() call.
class RssWatchdog {
 public:
  /// `soft_limit_bytes == 0` (or an unreadable /proc) makes the watchdog
  /// a no-op. `poll_interval_ms` is short so shedding reacts before the
  /// kernel's OOM killer would.
  explicit RssWatchdog(std::size_t soft_limit_bytes,
                       unsigned poll_interval_ms = 25);
  ~RssWatchdog();

  RssWatchdog(const RssWatchdog&) = delete;
  RssWatchdog& operator=(const RssWatchdog&) = delete;

 private:
  void run(std::size_t soft_limit_bytes, unsigned poll_interval_ms);

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace xtv::resource
