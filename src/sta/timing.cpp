#include "sta/timing.h"

#include <algorithm>
#include <utility>

namespace xtv {

void LogicCorrelation::add_complementary(std::size_t a, std::size_t b) {
  complementary_.emplace_back(a, b);
}

void LogicCorrelation::add_mutex(std::vector<std::size_t> nets) {
  mutex_groups_.push_back(std::move(nets));
}

bool LogicCorrelation::complementary(std::size_t a, std::size_t b) const {
  for (const auto& [x, y] : complementary_)
    if ((x == a && y == b) || (x == b && y == a)) return true;
  return false;
}

bool LogicCorrelation::mutexed(std::size_t a, std::size_t b) const {
  if (a == b) return false;
  for (const auto& group : mutex_groups_) {
    const bool has_a = std::find(group.begin(), group.end(), a) != group.end();
    const bool has_b = std::find(group.begin(), group.end(), b) != group.end();
    if (has_a && has_b) return true;
  }
  return false;
}

bool LogicCorrelation::can_switch_same_direction(std::size_t a, std::size_t b) const {
  if (complementary(a, b)) return false;
  return can_switch_together(a, b);
}

bool LogicCorrelation::can_switch_together(std::size_t a, std::size_t b) const {
  return !mutexed(a, b);
}

}  // namespace xtv
