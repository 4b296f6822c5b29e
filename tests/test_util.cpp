// Unit tests for src/util: PRNG determinism & distribution sanity,
// summary statistics, histograms, tables, strict number parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/parse.h"
#include "util/prng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"
#include "util/units.h"

namespace xtv {
namespace {

TEST(Prng, SameSeedSameStream) {
  Prng a(42);
  Prng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng a(1);
  Prng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u32() == b.next_u32()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Prng, UniformInUnitInterval) {
  Prng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Prng, UniformMeanAndRange) {
  Prng rng(11);
  SummaryStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.uniform(-2.0, 6.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
  EXPECT_GE(s.min(), -2.0);
  EXPECT_LT(s.max(), 6.0);
}

TEST(Prng, UniformIntCoversRangeInclusive) {
  Prng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(2, 9));
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(*seen.begin(), 2);
  EXPECT_EQ(*seen.rbegin(), 9);
}

TEST(Prng, NormalMoments) {
  Prng rng(13);
  SummaryStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Prng, LogUniformStaysInRange) {
  Prng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.log_uniform(1e-15, 1e-9);
    EXPECT_GE(x, 1e-15 * (1 - 1e-12));
    EXPECT_LE(x, 1e-9 * (1 + 1e-12));
  }
}

TEST(Prng, BernoulliEdgeCases) {
  Prng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Prng, WeightedIndexRespectsWeights) {
  Prng rng(23);
  std::vector<double> w = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.2);
}

TEST(Prng, ShuffleIsPermutation) {
  Prng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(SummaryStats, Basics) {
  SummaryStats s;
  s.add_all({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(1.25), 1e-12);
}

TEST(SummaryStats, EmptyIsSafe) {
  SummaryStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SummaryStats, SingleElement) {
  SummaryStats s;
  s.add(-3.5);
  EXPECT_DOUBLE_EQ(s.mean(), -3.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.5);
  EXPECT_DOUBLE_EQ(s.max(), -3.5);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamped to bin 0
  h.add(42.0);   // clamped to bin 9
  h.add(5.0);    // bin 5
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, BinEdgesAndCenters) {
  Histogram h(-1.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), -1.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_center(1), -0.25);
}

TEST(Histogram, FractionsSumToOne) {
  Histogram h(0.0, 1.0, 5);
  Prng rng(31);
  for (int i = 0; i < 1000; ++i) h.add(rng.uniform());
  double total = 0.0;
  for (std::size_t b = 0; b < h.bin_count(); ++b) total += h.fraction(b);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Histogram, AsciiRenderingHasOneLinePerBin) {
  Histogram h(0.0, 1.0, 3);
  h.add(0.1);
  const std::string s = h.to_ascii();
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 3);
}

TEST(Percentile, Interpolates) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.0);
}

TEST(AsciiTable, RendersAlignedColumns) {
  AsciiTable t({"ckt", "glitch"});
  t.add_row({"ckt1", AsciiTable::num(0.123456, 3)});
  t.add_row({"ckt2", AsciiTable::num(1.5, 3)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("ckt1"), std::string::npos);
  EXPECT_NE(s.find("0.123"), std::string::npos);
  EXPECT_NE(s.find("1.500"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(AsciiTable, ScaledNumbers) {
  EXPECT_EQ(AsciiTable::num_scaled(2.5e-9, 1e-9, "ns", 2), "2.50 ns");
}

TEST(Units, Factors) {
  EXPECT_DOUBLE_EQ(100 * units::um, 1e-4);
  EXPECT_DOUBLE_EQ(2 * units::ns, 2e-9);
  EXPECT_DOUBLE_EQ(5 * units::fF, 5e-15);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  ASSERT_GT(sink, 0.0);
  EXPECT_GE(t.elapsed(), 0.0);
  t.restart();
  EXPECT_LT(t.elapsed(), 1.0);
}

TEST(Parse, UnsignedTakesWholeDigitTokensOnly) {
  std::uint64_t v = 7;
  EXPECT_TRUE(parse_unsigned("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_unsigned("18446744073709551615", &v));
  EXPECT_EQ(v, 18446744073709551615ull);
  EXPECT_TRUE(parse_unsigned("c07ebd46bf789f57", &v, 16));
  EXPECT_EQ(v, 0xc07ebd46bf789f57ull);
  // A sign would wrap, overflow would saturate, and the rest is junk.
  for (const char* bad : {"", "-1", "+3", " 5", "5 ", "5x", "0x10", "1.0",
                          "18446744073709551616"}) {
    SCOPED_TRACE(bad);
    v = 7;
    EXPECT_FALSE(parse_unsigned(bad, &v));
    EXPECT_EQ(v, 7u);  // untouched on failure
  }
  long l = 0;
  EXPECT_TRUE(parse_signed("-1", &l));
  EXPECT_EQ(l, -1);
  EXPECT_FALSE(parse_signed("2.5", &l));
  EXPECT_FALSE(parse_signed("99999999999999999999", &l));
}

TEST(Parse, FiniteRejectsNanInfRangeErrorsAndJunk) {
  double d = 0.0;
  EXPECT_TRUE(parse_finite("0x1.8p+1", &d));
  EXPECT_EQ(d, 3.0);
  EXPECT_TRUE(parse_finite("-2.5e-3", &d));
  EXPECT_EQ(d, -2.5e-3);
  // An exactly written subnormal is no range error.
  EXPECT_TRUE(parse_finite(format_hexfloat(4.9e-324), &d));
  EXPECT_EQ(d, 4.9e-324);
  for (const char* bad : {"", "nan", "inf", "-inf", "1e400", "1e-400", " 1",
                          "1 ", "1x", "abc"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(parse_finite(bad, &d));
  }
  const Range open_unit{0.0, 1.0, true};
  EXPECT_TRUE(parse_finite("1", &d, open_unit));
  EXPECT_FALSE(parse_finite("0", &d, open_unit));
  EXPECT_FALSE(parse_finite("1.5", &d, open_unit));
  // Journals load back whatever they wrote, non-finite values included.
  EXPECT_TRUE(parse_double_token(format_hexfloat(-INFINITY), &d));
  EXPECT_TRUE(std::isinf(d) && d < 0.0);
  EXPECT_TRUE(parse_double_token("nan", &d));
  EXPECT_TRUE(std::isnan(d));
}

}  // namespace
}  // namespace xtv
