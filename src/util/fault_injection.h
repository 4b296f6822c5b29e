// Deterministic fault injection for exercising the recovery ladder.
//
// Each numerical failure class in the pipeline has an instrumented site
// (XTV_INJECT_FAULT at the top of the factorization/sweep/solve) that asks
// the process-wide FaultInjector whether to force that failure now. Sites
// are counter-keyed: arming a site with period N fires on every N-th hit
// (optionally capped at max_fires), so tests can force, say, a Newton
// breakdown on exactly the third cluster analyzed — every rung of the
// verifier's retry/degradation ladder becomes reachable on demand.
//
// When the verifier binds a ScopedVictim, decisions switch from the
// global arrival order to a per-(site, victim) hit index mixed with the
// victim net id — the same victims are disturbed whether the run uses one
// worker thread or sixteen, so parallel chaos runs stay reproducible.
//
// Release-path cost: when nothing is armed (the production state) a site
// is one relaxed atomic-bool load. Defining XTV_DISABLE_FAULT_INJECTION
// compiles the hooks out entirely.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace xtv {

/// Instrumented failure sites, one per forcible failure class.
enum class FaultSite : int {
  kCholeskyFactor = 0,  ///< linalg: Cholesky factorization breakdown
  kDenseLuFactor,       ///< linalg: dense LU singular pivot
  kSparseLuFactor,      ///< linalg: sparse LU singular pivot
  kLanczosSweep,        ///< mor: SyMPVL Krylov sweep breakdown
  kPassivityCheck,      ///< mor: reduced T fails the PSD/passivity check
  kReducedNewton,       ///< mor: reduced-model transient Newton divergence
  kSpiceNewton,         ///< spice: full-circuit Newton divergence
  kWaveformFinite,      ///< analyzers: NaN/Inf waveform detection
  kFpTrap,              ///< util: FpKernelGuard check (forced FP exception)
  kVictimTask,          ///< core: verifier worker task outside the ladder
  kCertifyProbe,        ///< mor: a-posteriori certificate probe solve failure
  kRemoteSend,          ///< serve: coordinator->worker frame write failure
  kRemoteRecv,          ///< serve: worker->coordinator frame read failure
  kLeaseExpiry,         ///< serve: force a held lease to expire immediately
  kCount,               ///< number of sites (not a site)
};

const char* fault_site_name(FaultSite site);

class FaultInjector {
 public:
  /// Process-wide instance used by every instrumented site.
  static FaultInjector& instance();

  /// Sentinel for "no victim context on this thread".
  static constexpr std::uint64_t kNoVictim = ~std::uint64_t{0};

  /// Binds the enclosing victim net id to this thread while alive, making
  /// injection decisions a pure function of (site, victim, per-victim hit
  /// index) instead of the global arrival order — so a run with
  /// --threads 8 disturbs exactly the same victims as a serial run.
  class ScopedVictim {
   public:
    explicit ScopedVictim(std::uint64_t victim_net);
    ~ScopedVictim();
    ScopedVictim(const ScopedVictim&) = delete;
    ScopedVictim& operator=(const ScopedVictim&) = delete;

   private:
    std::uint64_t prev_;
  };

  /// Arms `site`: starting from the next hit, every `period`-th hit fires
  /// (period 1 = every hit). `max_fires` caps the total number of forced
  /// failures (0 = unlimited). Re-arming resets the site's counters.
  void arm(FaultSite site, std::uint64_t period = 1, std::uint64_t max_fires = 0);

  /// Disarms one site (its hit/fire counts are kept until reset()).
  void disarm(FaultSite site);

  /// Disarms every site and zeroes all counters.
  void reset();

  /// Hits observed at `site` since it was last armed (sites are only
  /// counted while armed, so arming is the deterministic time origin).
  std::uint64_t hits(FaultSite site) const;

  /// Failures forced at `site` since it was last armed.
  std::uint64_t fires(FaultSite site) const;

  /// Called by the instrumented site: returns true when this hit must
  /// fail. Fast path (nothing armed anywhere) is one relaxed atomic load.
  bool should_fail(FaultSite site) {
    if (!any_armed_.load(std::memory_order_relaxed)) return false;
    return should_fail_slow(site);
  }

 private:
  FaultInjector() = default;
  bool should_fail_slow(FaultSite site);

  struct VictimState {
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
  };

  struct SiteState {
    bool armed = false;
    std::uint64_t period = 1;
    std::uint64_t max_fires = 0;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
    /// Per-victim counters used when a ScopedVictim is bound: decisions
    /// are keyed on (victim, per-victim hit index), independent of the
    /// interleaving of other victims' hits.
    std::unordered_map<std::uint64_t, VictimState> by_victim;
  };

  mutable std::mutex mutex_;
  std::atomic<bool> any_armed_{false};
  std::array<SiteState, static_cast<std::size_t>(FaultSite::kCount)> sites_{};
};

}  // namespace xtv

#if defined(XTV_DISABLE_FAULT_INJECTION)
#define XTV_INJECT_FAULT(site) false
#else
#define XTV_INJECT_FAULT(site) (::xtv::FaultInjector::instance().should_fail(site))
#endif
