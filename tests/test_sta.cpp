// Tests for timing-window overlap and logic correlation.
#include <gtest/gtest.h>

#include "sta/timing.h"

namespace xtv {
namespace {

TEST(TimingWindow, OverlapRules) {
  const auto a = TimingWindow::of(1.0, 3.0);
  const auto b = TimingWindow::of(2.5, 4.0);
  const auto c = TimingWindow::of(3.5, 5.0);
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(b.overlaps(c));
  // Touching endpoints count as overlap (closed intervals).
  EXPECT_TRUE(TimingWindow::of(0.0, 1.0).overlaps(TimingWindow::of(1.0, 2.0)));
  // never() overlaps nothing.
  EXPECT_FALSE(TimingWindow::never().overlaps(a));
  EXPECT_FALSE(a.overlaps(TimingWindow::never()));
}

TEST(LogicCorrelation, ComplementaryPairsCannotSwitchSameDirection) {
  LogicCorrelation lc;
  lc.add_complementary(1, 2);
  EXPECT_FALSE(lc.can_switch_same_direction(1, 2));
  EXPECT_FALSE(lc.can_switch_same_direction(2, 1));
  EXPECT_TRUE(lc.can_switch_together(1, 2));  // opposite directions allowed
  EXPECT_TRUE(lc.can_switch_same_direction(1, 3));
}

TEST(LogicCorrelation, MutexGroupsBlockAnySimultaneousSwitch) {
  LogicCorrelation lc;
  lc.add_mutex({4, 5, 6});
  EXPECT_FALSE(lc.can_switch_together(4, 5));
  EXPECT_FALSE(lc.can_switch_together(5, 6));
  EXPECT_FALSE(lc.can_switch_same_direction(4, 6));
  EXPECT_TRUE(lc.can_switch_together(4, 7));
  // A net is never mutexed with itself.
  EXPECT_TRUE(lc.can_switch_together(4, 4));
}

}  // namespace
}  // namespace xtv
