// Unit tests of the benchmark's pure helpers (perfbench/src/metrics.h).
#include <gtest/gtest.h>

#include "metrics.h"

using namespace perfbench;

TEST(Quantile, InterpolatesLikeNumpy) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.75), 7.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  // numpy.percentile([1..5], 75) == 4.0, ([1..4], 75) == 3.25
  EXPECT_DOUBLE_EQ(quantile({5, 4, 3, 2, 1}, 0.75), 4.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.75), 3.25);
}

TEST(Quantile, TailSelectionKeepsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(40, 0.75), 10u);
  EXPECT_EQ(samples_beyond(39, 0.75), 9u);
  EXPECT_EQ(samples_beyond(500, 0.98), 10u);
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  const std::vector<double> cands = {0.75, 0.9, 0.95, 0.98, 0.99};
  EXPECT_DOUBLE_EQ(highest_supported_quantile(1000, cands), 0.99);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(500, cands), 0.98);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(100, cands), 0.9);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(40, cands), 0.75);
  // Too few samples for any tail: the median is the only honest figure.
  EXPECT_DOUBLE_EQ(highest_supported_quantile(39, cands), 0.5);
}

TEST(Spans, SelfTimeSubtractsClippedMergedChildren) {
  std::vector<Span> s(5);
  s[0] = {"victim", 0.0, 10.0, -1};
  s[1] = {"a", 1.0, 3.0, 0};
  s[2] = {"b", 2.0, 5.0, 0};    // overlaps a: union [1, 5]
  s[3] = {"c", 9.0, 12.0, 0};   // runs past the parent: clipped to [9, 10]
  s[4] = {"d", 3.5, 4.0, 2};    // grandchild: only b's self time shrinks
  const auto self = span_self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 2.5);
  EXPECT_DOUBLE_EQ(self[3], 3.0);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
}

TEST(Digest, MasksOnlyCpuSeconds) {
  xtv::JournalRecord a;
  a.finding.net = 3;
  a.finding.peak = -0.42;
  a.finding.peak_fraction = 0.14;
  a.finding.cpu_seconds = 0.125;
  xtv::JournalRecord b = a;
  b.finding.cpu_seconds = 9.5;
  EXPECT_EQ(masked_payload(a), masked_payload(b));
  EXPECT_EQ(findings_digest({{3, a}}), findings_digest({{3, b}}));

  xtv::JournalRecord c = a;
  c.finding.peak = std::nextafter(a.finding.peak, 0.0);  // one ulp
  EXPECT_NE(findings_digest({{3, a}}), findings_digest({{3, c}}));
  xtv::JournalRecord d = a;
  d.finding.net = 4;
  EXPECT_NE(findings_digest({{3, a}}), findings_digest({{4, d}}));
  EXPECT_NE(findings_digest({{3, a}}), findings_digest({}));
}

TEST(ClosedLoop, OneOutstandingJobPerClient) {
  ClosedLoopLedger ledger(5, 2);
  EXPECT_EQ(ledger.next(0, 0.0), 0);
  EXPECT_EQ(ledger.next(1, 0.5), 1);
  EXPECT_EQ(ledger.next(0, 1.0), -1);  // client 0 still owns job 0
  EXPECT_EQ(ledger.next(7, 1.0), -1);  // no such client
  ledger.accepted(0, 0.01);
  ledger.finding(0, 1.0);
  ledger.finding(0, 2.0);
  ledger.finish(0, 2.5, true);
  EXPECT_EQ(ledger.next(0, 2.5), 2);
  ledger.finish(1, 3.0, true);
  ledger.finish(2, 4.0, false);
  EXPECT_EQ(ledger.next(1, 3.0), 3);
  EXPECT_EQ(ledger.next(0, 4.0), 4);
  ledger.finish(3, 5.0, true);
  ledger.finish(4, 6.5, true);
  EXPECT_EQ(ledger.next(0, 7.0), -1);  // every job handed out
  EXPECT_EQ(ledger.peak_outstanding(), 2u);

  const auto jobs = ledger.snapshot();
  EXPECT_DOUBLE_EQ(jobs[0].accepted, 0.01);
  EXPECT_DOUBLE_EQ(jobs[0].first_finding, 1.0);
  EXPECT_DOUBLE_EQ(jobs[0].last_finding, 2.0);
  EXPECT_FALSE(jobs[2].ok);
  EXPECT_EQ(jobs[3].client, 1u);
  const auto turn = ClosedLoopLedger::turnarounds(jobs);
  ASSERT_EQ(turn.size(), 5u);
  EXPECT_DOUBLE_EQ(turn[0], 2.5);
  EXPECT_DOUBLE_EQ(turn[1], 2.5);
  EXPECT_DOUBLE_EQ(turn[2], 1.5);
  EXPECT_DOUBLE_EQ(turn[4], 2.5);
  EXPECT_DOUBLE_EQ(ClosedLoopLedger::makespan(jobs), 6.5);
}
