// Switching windows and logic correlations.
//
// The paper uses "timing window and logic/timing correlation information
// ... in pruning and in analysis" (Section 6) to avoid impossible
// aggressor alignments. This module holds the two filters the verifier
// applies: switching-window overlap and logic-correlation vetoes. The
// windows themselves come with the design (chipgen draws them).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace xtv {

/// Earliest/latest time a net can switch within a clock cycle. An invalid
/// window means "never switches" (e.g. a constant net).
struct TimingWindow {
  double start = 0.0;
  double end = 0.0;
  bool valid = false;

  static TimingWindow never() { return {}; }
  static TimingWindow of(double start, double end) { return {start, end, true}; }

  /// True if two windows share any instant (closed intervals).
  bool overlaps(const TimingWindow& other) const {
    return valid && other.valid && start <= other.end && other.start <= end;
  }
};

/// Logic correlations between nets (Section 2: "the logic values of
/// flip-flop outputs are normally complementary").
class LogicCorrelation {
 public:
  /// Declares nets a and b complementary (Q/QN): they switch together but
  /// always in opposite directions.
  void add_complementary(std::size_t a, std::size_t b);

  /// Declares a mutually-exclusive group: at most one member switches in a
  /// cycle (one-hot selects, decoded bus enables).
  void add_mutex(std::vector<std::size_t> nets);

  /// Can `a` and `b` both switch in the SAME direction in one cycle?
  bool can_switch_same_direction(std::size_t a, std::size_t b) const;

  /// Can `a` and `b` both switch (any directions) in one cycle?
  bool can_switch_together(std::size_t a, std::size_t b) const;

 private:
  bool complementary(std::size_t a, std::size_t b) const;
  bool mutexed(std::size_t a, std::size_t b) const;

  std::vector<std::pair<std::size_t, std::size_t>> complementary_;
  std::vector<std::vector<std::size_t>> mutex_groups_;
};

}  // namespace xtv
