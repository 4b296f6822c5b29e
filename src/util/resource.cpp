#include "util/resource.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include <unistd.h>

#include "util/status.h"

namespace xtv::resource {

namespace {

thread_local ClusterScope* t_current_scope = nullptr;

std::string mb_string(std::size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f MiB",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

}  // namespace

std::size_t read_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  unsigned long long vm_pages = 0, rss_pages = 0;
  const int got = std::fscanf(f, "%llu %llu", &vm_pages, &rss_pages);
  std::fclose(f);
  if (got != 2) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) return 0;
  return static_cast<std::size_t>(rss_pages) * static_cast<std::size_t>(page);
}

ClusterScope::ClusterScope(std::size_t limit_bytes, const char* label)
    : limit_(limit_bytes), label_(label), prev_(t_current_scope) {
  t_current_scope = this;
}

ClusterScope::~ClusterScope() { t_current_scope = prev_; }

ClusterScope* ClusterScope::current() { return t_current_scope; }

void ClusterScope::charge(std::size_t bytes) {
  const std::size_t now =
      used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::size_t seen = peak_.load(std::memory_order_relaxed);
  while (now > seen &&
         !peak_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
  }
  if (limit_ > 0 && now > limit_ && !exempt()) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
    throw NumericalError(
        StatusCode::kResourceExceeded,
        std::string(label_) + ": memory budget exceeded (requested " +
            mb_string(bytes) + " on top of " + mb_string(now - bytes) +
            ", limit " + mb_string(limit_) + ")");
  }
}

void ClusterScope::release(std::size_t bytes) {
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

ClusterScope::Exemption::Exemption() : scope_(t_current_scope) {
  if (scope_) ++scope_->exempt_depth_;
}

ClusterScope::Exemption::~Exemption() {
  if (scope_) --scope_->exempt_depth_;
}

ClusterScope::Suspension::Suspension() : saved_(t_current_scope) {
  t_current_scope = nullptr;
}

ClusterScope::Suspension::~Suspension() { t_current_scope = saved_; }

MemCharge::MemCharge(std::size_t bytes) {
  ClusterScope* scope = t_current_scope;
  if (!scope || bytes == 0) return;
  scope->charge(bytes);  // throws before we record anything on breach
  scope_ = scope;
  bytes_ = bytes;
}

void MemCharge::reset() {
  if (scope_) scope_->release(bytes_);
  scope_ = nullptr;
  bytes_ = 0;
}

ScopedCharge::~ScopedCharge() {
  if (scope_) scope_->release(total_);
}

void ScopedCharge::add(std::size_t bytes) {
  if (bytes == 0) return;
  if (!scope_) {
    scope_ = t_current_scope;
    if (!scope_) return;
  }
  scope_->charge(bytes);
  total_ += bytes;
}

void ScopedCharge::shrink(std::size_t bytes) {
  if (!scope_ || bytes == 0) return;
  const std::size_t give_back = std::min(bytes, total_);
  scope_->release(give_back);
  total_ -= give_back;
}

MemoryGovernor& MemoryGovernor::instance() {
  static MemoryGovernor governor;
  return governor;
}

RssWatchdog::RssWatchdog(std::size_t soft_limit_bytes,
                         unsigned poll_interval_ms) {
  if (soft_limit_bytes == 0 || read_rss_bytes() == 0) return;
  thread_ = std::thread(
      [this, soft_limit_bytes, poll_interval_ms] {
        run(soft_limit_bytes, poll_interval_ms);
      });
}

RssWatchdog::~RssWatchdog() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  MemoryGovernor::instance().set_watchdog_pressure(false);
}

void RssWatchdog::run(std::size_t soft_limit_bytes, unsigned poll_interval_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    const std::size_t rss = read_rss_bytes();
    MemoryGovernor::instance().set_watchdog_pressure(rss >= soft_limit_bytes);
    cv_.wait_for(lock, std::chrono::milliseconds(poll_interval_ms),
                 [this] { return stop_; });
  }
}

}  // namespace xtv::resource
