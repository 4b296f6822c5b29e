#include "util/workspace.h"

#include <atomic>

namespace xtv::workspace {

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void count_allocation() {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
}

Stats stats() {
  Stats s;
  s.acquires = g_allocations.load(std::memory_order_relaxed);
  return s;
}

void reset_stats() { g_allocations.store(0, std::memory_order_relaxed); }

}  // namespace xtv::workspace
