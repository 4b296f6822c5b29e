// Robustness tests: the fault-injection harness, typed numerical errors,
// the verifier's retry/degradation ladder (every rung), the report's
// accounting invariant under periodic injection, and the hardened input
// validation in the deck parser / stats / PRNG.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "chipgen/dsp_chip.h"
#include "core/verifier.h"
#include "linalg/cholesky.h"
#include "linalg/dense_lu.h"
#include "netlist/spice_deck.h"
#include "spice/waveform.h"
#include "util/fault_injection.h"
#include "util/prng.h"
#include "util/stats.h"
#include "util/status.h"

namespace xtv {
namespace {

const Technology kTech = Technology::default_250nm();

class RobustnessFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new CellLibrary(kTech);
    CharacterizeOptions copt;
    copt.iv_grid = 11;
    chars_ = new CharacterizedLibrary(*lib_, copt);
    extractor_ = new Extractor(kTech);
    DspChipOptions chip_opt;
    chip_opt.net_count = 120;
    chip_opt.tracks = 8;
    design_ = new ChipDesign(generate_dsp_chip(*lib_, chip_opt));
  }
  static void TearDownTestSuite() {
    delete design_;
    delete chars_;
    delete lib_;
    delete extractor_;
    design_ = nullptr;
    chars_ = nullptr;
    lib_ = nullptr;
    extractor_ = nullptr;
  }
  void SetUp() override { FaultInjector::instance().reset(); }
  void TearDown() override { FaultInjector::instance().reset(); }

  static VerifierOptions fast_options() {
    VerifierOptions options;
    options.glitch.align_aggressors = false;
    options.glitch.tstop = 3e-9;
    return options;
  }

  static CellLibrary* lib_;
  static CharacterizedLibrary* chars_;
  static Extractor* extractor_;
  static ChipDesign* design_;
};

CellLibrary* RobustnessFixture::lib_ = nullptr;
CharacterizedLibrary* RobustnessFixture::chars_ = nullptr;
Extractor* RobustnessFixture::extractor_ = nullptr;
ChipDesign* RobustnessFixture::design_ = nullptr;

// ---------------------------------------------------------------------------
// The injector itself: deterministic counter-keyed firing.

TEST_F(RobustnessFixture, InjectorFiresOnPeriodWithCap) {
  auto& fi = FaultInjector::instance();
  EXPECT_FALSE(fi.should_fail(FaultSite::kCholeskyFactor));  // disarmed
  EXPECT_EQ(fi.hits(FaultSite::kCholeskyFactor), 0u);        // not counted

  fi.arm(FaultSite::kCholeskyFactor, /*period=*/3, /*max_fires=*/2);
  std::vector<bool> fired;
  for (int i = 0; i < 12; ++i)
    fired.push_back(fi.should_fail(FaultSite::kCholeskyFactor));
  // Fires on hits 3 and 6, then the cap stops it.
  const std::vector<bool> expect = {false, false, true, false, false, true,
                                    false, false, false, false, false, false};
  EXPECT_EQ(fired, expect);
  EXPECT_EQ(fi.hits(FaultSite::kCholeskyFactor), 12u);
  EXPECT_EQ(fi.fires(FaultSite::kCholeskyFactor), 2u);

  // Sites are independent.
  EXPECT_FALSE(fi.should_fail(FaultSite::kDenseLuFactor));

  fi.disarm(FaultSite::kCholeskyFactor);
  EXPECT_FALSE(fi.should_fail(FaultSite::kCholeskyFactor));
  // Re-arming resets the site's counters.
  fi.arm(FaultSite::kCholeskyFactor, 1, 1);
  EXPECT_EQ(fi.hits(FaultSite::kCholeskyFactor), 0u);
  EXPECT_TRUE(fi.should_fail(FaultSite::kCholeskyFactor));
  fi.reset();
  EXPECT_FALSE(fi.should_fail(FaultSite::kCholeskyFactor));
}

// ---------------------------------------------------------------------------
// Typed errors out of the instrumented layers.

TEST_F(RobustnessFixture, InjectedFaultsThrowTypedNumericalErrors) {
  auto& fi = FaultInjector::instance();

  fi.arm(FaultSite::kCholeskyFactor);
  try {
    Cholesky chol(DenseMatrix::identity(3));
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.code(), StatusCode::kCholeskyBreakdown);
  }
  fi.reset();

  fi.arm(FaultSite::kDenseLuFactor);
  try {
    DenseLu lu(DenseMatrix::identity(3));
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.code(), StatusCode::kSingularMatrix);
  }
  fi.reset();

  // NumericalError stays catchable as runtime_error, so pre-existing
  // callers (and tests) that expect runtime_error keep working.
  fi.arm(FaultSite::kCholeskyFactor);
  EXPECT_THROW(Cholesky(DenseMatrix::identity(2)), std::runtime_error);
}

TEST_F(RobustnessFixture, RealBreakdownsCarryCodesToo) {
  // A genuinely indefinite matrix, no injection: same typed error.
  DenseMatrix bad = DenseMatrix::identity(2);
  bad(1, 1) = -1.0;
  try {
    Cholesky chol(bad);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.code(), StatusCode::kCholeskyBreakdown);
  }
  DenseMatrix sing(2, 2);  // all zeros
  try {
    DenseLu lu(sing);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.code(), StatusCode::kSingularMatrix);
  }
}

TEST_F(RobustnessFixture, WaveformFiniteGuard) {
  Waveform w;
  w.append(0.0, 0.0);
  w.append(1e-9, 1.0);
  EXPECT_TRUE(w.all_finite());
  w.append(2e-9, std::nan(""));
  EXPECT_FALSE(w.all_finite());
  Waveform inf;
  inf.append(0.0, std::numeric_limits<double>::infinity());
  EXPECT_FALSE(inf.all_finite());
}

// ---------------------------------------------------------------------------
// The verifier ladder, rung by rung.

TEST_F(RobustnessFixture, LadderRetryRecoversAfterSingleFailure) {
  VerifierOptions options = fast_options();
  // Each victim's first reduced-model run fails (injection is keyed by
  // victim), and its halved-timestep retry succeeds.
  FaultInjector::instance().arm(FaultSite::kReducedNewton, 1, /*max_fires=*/1);
  const VerificationReport report = ChipVerifier(*extractor_, *chars_)
                                        .verify(*design_, options);
  ASSERT_GE(report.findings.size(), 1u);
  for (const VictimFinding& f : report.findings) {
    EXPECT_EQ(f.status, FindingStatus::kAnalyzedAfterRetry) << "net " << f.net;
    EXPECT_EQ(f.retries, 1u);
    EXPECT_EQ(f.error_code, StatusCode::kNewtonDivergence);
    EXPECT_FALSE(f.error.empty());
    EXPECT_GT(std::fabs(f.peak), 0.0);
  }
  EXPECT_EQ(report.victims_analyzed, report.findings.size());
  EXPECT_EQ(report.victims_retried, report.findings.size());
  EXPECT_EQ(report.victims_fallback, 0u);
  EXPECT_EQ(report.victims_failed, 0u);
}

TEST_F(RobustnessFixture, LadderFallsBackToFullSimulation) {
  VerifierOptions options = fast_options();
  // Every reduced-model attempt fails (all three MOR rungs); the golden
  // engine is untouched, so the full simulation rung lands.
  FaultInjector::instance().arm(FaultSite::kReducedNewton, 1, /*max_fires=*/0);
  const VerificationReport report = ChipVerifier(*extractor_, *chars_)
                                        .verify(*design_, options);
  ASSERT_GE(report.findings.size(), 1u);
  for (const VictimFinding& f : report.findings) {
    EXPECT_EQ(f.status, FindingStatus::kFellBackToFullSim) << "net " << f.net;
    EXPECT_EQ(f.retries, 3u);
    EXPECT_EQ(f.error_code, StatusCode::kNewtonDivergence);
    EXPECT_GT(std::fabs(f.peak), 0.0);
  }
  EXPECT_EQ(report.victims_analyzed, 0u);
  EXPECT_EQ(report.victims_fallback, report.findings.size());
  EXPECT_EQ(report.victims_failed, 0u);
}

TEST_F(RobustnessFixture, LadderFallsBackToConservativeBound) {
  VerifierOptions options = fast_options();
  // Clean reference run first (also primes the cell characterization, so
  // the injected run never needs a fresh SPICE characterization solve).
  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport clean = verifier.verify(*design_, options);
  ASSERT_GE(clean.findings.size(), 1u);

  // Both simulation engines fail on everything: only the bound is left.
  FaultInjector::instance().arm(FaultSite::kReducedNewton, 1, 0);
  FaultInjector::instance().arm(FaultSite::kSpiceNewton, 1, 0);
  const VerificationReport report = verifier.verify(*design_, options);
  ASSERT_GE(report.findings.size(), clean.findings.size());
  EXPECT_EQ(report.victims_failed, 0u);
  EXPECT_EQ(report.victims_analyzed, 0u);
  for (const VictimFinding& f : report.findings) {
    EXPECT_EQ(f.status, FindingStatus::kFellBackToBound) << "net " << f.net;
    EXPECT_EQ(f.retries, 4u);
    EXPECT_LE(f.peak, 0.0);  // held-high victim: glitch pulls down
    EXPECT_GE(f.peak_fraction, 0.0);
    EXPECT_LE(f.peak_fraction, 1.0);
  }
  // The bound is conservative: for every victim the clean run analyzed,
  // the bound-fallback peak dominates the simulated peak.
  for (const VictimFinding& ref : clean.findings) {
    bool found = false;
    for (const VictimFinding& f : report.findings) {
      if (f.net != ref.net) continue;
      found = true;
      EXPECT_GE(std::fabs(f.peak), std::fabs(ref.peak) - 1e-12)
          << "net " << f.net;
    }
    EXPECT_TRUE(found) << "net " << ref.net << " vanished from the report";
  }
}

TEST_F(RobustnessFixture, AccountingInvariantUnderPeriodicInjection) {
  VerifierOptions options = fast_options();
  options.use_noise_screen = true;
  // Roughly one reduced-model run in ten dies mid-chip.
  FaultInjector::instance().arm(FaultSite::kReducedNewton, /*period=*/10, 0);
  const VerificationReport report = ChipVerifier(*extractor_, *chars_)
                                        .verify(*design_, options);
  ASSERT_GE(report.victims_eligible, 3u);
  // Every victim is reported exactly once, never silently skipped.
  EXPECT_EQ(report.victims_eligible,
            report.victims_analyzed + report.victims_screened_out +
                report.victims_fallback + report.victims_failed);
  EXPECT_EQ(report.findings.size(),
            report.victims_eligible - report.victims_screened_out);
  std::set<std::size_t> nets;
  for (const VictimFinding& f : report.findings) {
    EXPECT_TRUE(nets.insert(f.net).second) << "net " << f.net << " duplicated";
    if (f.status != FindingStatus::kAnalyzed) {
      EXPECT_GE(f.retries, 1u);
      EXPECT_FALSE(f.error.empty());
    }
  }
  EXPECT_GE(report.victims_retried, 1u);
  EXPECT_EQ(report.victims_failed, 0u);  // the ladder always lands somewhere
}

TEST_F(RobustnessFixture, CleanRunsAreDeterministicAndLadderFree) {
  VerifierOptions options = fast_options();
  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport a = verifier.verify(*design_, options);
  const VerificationReport b = verifier.verify(*design_, options);
  ASSERT_GE(a.findings.size(), 1u);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].net, b.findings[i].net);
    // Bit-identical: the ladder's rung 0 runs the untouched options.
    EXPECT_EQ(a.findings[i].peak, b.findings[i].peak);
    EXPECT_EQ(a.findings[i].status, FindingStatus::kAnalyzed);
    EXPECT_EQ(a.findings[i].retries, 0u);
    EXPECT_EQ(a.findings[i].error_code, StatusCode::kOk);
  }
  EXPECT_EQ(a.victims_retried, 0u);
  EXPECT_EQ(a.victims_fallback, 0u);
  EXPECT_EQ(a.victims_failed, 0u);
  EXPECT_EQ(a.victims_eligible,
            a.victims_analyzed + a.victims_screened_out);
}

// ---------------------------------------------------------------------------
// Hardened input validation (satellites).

TEST_F(RobustnessFixture, ParserRejectsNonFiniteValues) {
  EXPECT_NEAR(parse_spice_value("2.5k"), 2500.0, 1e-9);
  // std::stod accepts 1e308; the suffix scale overflows it to inf, which
  // must not leak into MNA stamps.
  EXPECT_THROW(parse_spice_value("1e308k"), std::runtime_error);
  EXPECT_THROW(parse_spice_value("1e999"), std::runtime_error);
  EXPECT_THROW(parse_spice_value("inf"), std::runtime_error);
  EXPECT_THROW(parse_spice_value("nan"), std::runtime_error);
}

TEST_F(RobustnessFixture, DeckErrorsNameTheLine) {
  const std::string deck =
      "* title\n"
      "R1 a b 1k\n"
      "C1 a 0 1e308k\n"
      ".end\n";
  try {
    parse_spice_deck(deck);
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deck line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
  }
}

TEST_F(RobustnessFixture, StatsValidateInputs) {
  EXPECT_THROW(Histogram(1.0, 0.0, 4), std::runtime_error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::runtime_error);
  EXPECT_THROW(percentile({}, 50.0), std::runtime_error);
  EXPECT_NO_THROW(Histogram(0.0, 1.0, 4));
}

TEST_F(RobustnessFixture, PrngValidatesInputs) {
  Prng rng(7);
  EXPECT_THROW(rng.uniform_int(5, 1), std::runtime_error);
  EXPECT_THROW(rng.log_uniform(-1.0, 2.0), std::runtime_error);
  EXPECT_THROW(rng.log_uniform(2.0, 1.0), std::runtime_error);
  EXPECT_THROW(rng.weighted_index({}), std::runtime_error);
  EXPECT_THROW(rng.weighted_index({0.0, -3.0}), std::runtime_error);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

}  // namespace
}  // namespace xtv
