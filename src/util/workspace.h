// Count of DenseMatrix storage allocations.
//
// DenseMatrix owns plain zero-filled std::vector<double> storage; nothing
// pools or recycles it. This header keeps only a process-wide count of
// those allocations (one relaxed atomic, a few dozen increments per
// victim), so a test can catch a hot loop that builds a matrix per step
// and the benchmark can report allocations per victim.
//
// The names (`workspace`, `acquires`, `pool_hits`) are the ones perfbench
// reads. `pool_hits` always reads 0 now that there is no pool, so
// perfbench's `workspace.pool_hit_ratio` reads 0; like
// VerificationReport::batched_victims it retires with the next benchmark
// change.
#pragma once

#include <cstddef>

namespace xtv::workspace {

struct Stats {
  std::size_t acquires = 0;   ///< DenseMatrix storage allocations
  std::size_t pool_hits = 0;  ///< always 0: there is no pool
};

/// Counts one DenseMatrix storage allocation.
void count_allocation();

/// Snapshot / reset of the count (exact under a quiescent reader, which is
/// all the tests and benches need).
Stats stats();
void reset_stats();

}  // namespace xtv::workspace
