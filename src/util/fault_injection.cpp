#include "util/fault_injection.h"

namespace xtv {

namespace {

thread_local std::uint64_t t_victim_net = FaultInjector::kNoVictim;

// splitmix64 finalizer: decorrelates adjacent net ids so periodic
// injection does not systematically hit (say) every even-numbered net.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FaultInjector::ScopedVictim::ScopedVictim(std::uint64_t victim_net)
    : prev_(t_victim_net) {
  t_victim_net = victim_net;
}

FaultInjector::ScopedVictim::~ScopedVictim() { t_victim_net = prev_; }

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kCholeskyFactor: return "cholesky-factor";
    case FaultSite::kDenseLuFactor: return "dense-lu-factor";
    case FaultSite::kSparseLuFactor: return "sparse-lu-factor";
    case FaultSite::kLanczosSweep: return "lanczos-sweep";
    case FaultSite::kPassivityCheck: return "passivity-check";
    case FaultSite::kReducedNewton: return "reduced-newton";
    case FaultSite::kSpiceNewton: return "spice-newton";
    case FaultSite::kWaveformFinite: return "waveform-finite";
    case FaultSite::kFpTrap: return "fp-trap";
    case FaultSite::kVictimTask: return "victim-task";
    case FaultSite::kCertifyProbe: return "certify-probe";
    case FaultSite::kRemoteSend: return "remote-send";
    case FaultSite::kRemoteRecv: return "remote-recv";
    case FaultSite::kLeaseExpiry: return "lease-expiry";
    case FaultSite::kCount: break;
  }
  return "unknown";
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::arm(FaultSite site, std::uint64_t period,
                        std::uint64_t max_fires) {
  std::lock_guard<std::mutex> lock(mutex_);
  SiteState& s = sites_.at(static_cast<std::size_t>(site));
  s.armed = true;
  s.period = period > 0 ? period : 1;
  s.max_fires = max_fires;
  s.hits = 0;
  s.fires = 0;
  s.by_victim.clear();
  any_armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::disarm(FaultSite site) {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_.at(static_cast<std::size_t>(site)).armed = false;
  bool any = false;
  for (const SiteState& s : sites_) any = any || s.armed;
  any_armed_.store(any, std::memory_order_relaxed);
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (SiteState& s : sites_) s = SiteState{};
  any_armed_.store(false, std::memory_order_relaxed);
}

std::uint64_t FaultInjector::hits(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sites_.at(static_cast<std::size_t>(site)).hits;
}

std::uint64_t FaultInjector::fires(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sites_.at(static_cast<std::size_t>(site)).fires;
}

bool FaultInjector::should_fail_slow(FaultSite site) {
  std::lock_guard<std::mutex> lock(mutex_);
  SiteState& s = sites_.at(static_cast<std::size_t>(site));
  if (!s.armed) return false;
  ++s.hits;
  if (t_victim_net != kNoVictim) {
    // Victim-keyed mode: the decision depends only on which victim this
    // is and how many times *this victim* has hit the site, never on how
    // other victims' hits interleave — thread-count independent.
    VictimState& v = s.by_victim[t_victim_net];
    ++v.hits;
    if (s.max_fires > 0 && v.fires >= s.max_fires) return false;
    const std::uint64_t phase =
        mix64(t_victim_net ^ (static_cast<std::uint64_t>(site) << 56));
    if ((phase + v.hits) % s.period != 0) return false;
    ++v.fires;
    ++s.fires;
    return true;
  }
  if (s.max_fires > 0 && s.fires >= s.max_fires) return false;
  if (s.hits % s.period != 0) return false;
  ++s.fires;
  return true;
}

}  // namespace xtv
