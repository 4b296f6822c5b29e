// Resource-governance tests (DESIGN.md §9): the cluster memory-accounting
// arena and its typed budget breach, the RSS watchdog and pressure-driven
// shedding, scoped FP-exception trapping, victim-keyed deterministic fault
// injection, worker-task isolation outside the ladder, and the journal's
// options-hash resume guard.
#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "chipgen/dsp_chip.h"
#include "core/verifier.h"
#include "linalg/dense_matrix.h"
#include "mor/sympvl.h"
#include "netlist/rc_network.h"
#include "util/deadline.h"
#include "util/fault_injection.h"
#include "util/fp_guard.h"
#include "util/resource.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace xtv {
namespace {

// ---------------------------------------------------------------------------
// ClusterScope: accounting, breach, exemption.

TEST(ResourceScope, ReadRssReturnsNonZeroOnLinux) {
  EXPECT_GT(resource::read_rss_bytes(), 0u);
}

TEST(ResourceScope, AccountsChargesAndPeakAndReleases) {
  resource::ClusterScope scope;
  EXPECT_EQ(resource::ClusterScope::current(), &scope);
  {
    resource::MemCharge fixed(1000);
    resource::ScopedCharge grown;
    grown.add(500);
    grown.add(250);
    EXPECT_EQ(scope.used(), 1750u);
    EXPECT_EQ(grown.total(), 750u);
  }
  EXPECT_EQ(scope.used(), 0u);
  EXPECT_EQ(scope.peak(), 1750u);
}

TEST(ResourceScope, BreachThrowsTypedErrorAndRollsBack) {
  resource::ClusterScope scope(1000);
  resource::MemCharge ok(800);
  try {
    resource::MemCharge breach(300);
    FAIL() << "expected kResourceExceeded";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.code(), StatusCode::kResourceExceeded);
    EXPECT_NE(std::string(e.what()).find("memory budget exceeded"),
              std::string::npos);
  }
  // The rejected charge must not linger in the accounting.
  EXPECT_EQ(scope.used(), 800u);
}

TEST(ResourceScope, ExemptionSuspendsEnforcementNotAccounting) {
  resource::ClusterScope scope(1000);
  {
    resource::ClusterScope::Exemption exempt;
    resource::MemCharge big(5000);  // over limit, but exempt
    EXPECT_EQ(scope.used(), 5000u);
  }
  EXPECT_EQ(scope.used(), 0u);
  EXPECT_THROW(resource::MemCharge(5000), NumericalError);
}

TEST(ResourceScope, NestedScopesBillTheInnermost) {
  resource::ClusterScope outer;
  {
    resource::ClusterScope inner;
    EXPECT_EQ(resource::ClusterScope::current(), &inner);
    resource::MemCharge c(4096);
    EXPECT_EQ(inner.used(), 4096u);
    EXPECT_EQ(outer.used(), 0u);
  }
  EXPECT_EQ(resource::ClusterScope::current(), &outer);
}

// ---------------------------------------------------------------------------
// DenseMatrix integration: storage is charged, a breach precedes the
// allocation, and copies/moves keep the accounting exact.

TEST(ResourceScope, DenseMatrixChargesItsStorage) {
  resource::ClusterScope scope;
  {
    DenseMatrix m(100, 50);
    EXPECT_EQ(scope.used(), 100u * 50u * sizeof(double));
    DenseMatrix copy = m;  // second charge
    EXPECT_EQ(scope.used(), 2u * 100u * 50u * sizeof(double));
    DenseMatrix moved = std::move(copy);  // transfer, no new charge
    EXPECT_EQ(scope.used(), 2u * 100u * 50u * sizeof(double));
  }
  EXPECT_EQ(scope.used(), 0u);
}

TEST(ResourceScope, DenseMatrixOverBudgetThrowsInsteadOfAllocating) {
  resource::ClusterScope scope(1 << 20);  // 1 MiB
  DenseMatrix small(200, 200);            // 320 KB: fits
  EXPECT_THROW(DenseMatrix(400, 400), NumericalError);  // 1.28 MB: breach
  EXPECT_EQ(scope.used(), 200u * 200u * sizeof(double));
}

TEST(ResourceScope, NoScopeMeansNoAccounting) {
  ASSERT_EQ(resource::ClusterScope::current(), nullptr);
  DenseMatrix m(64, 64);  // must not crash or charge anything
  EXPECT_EQ(m.rows(), 64u);
}

// ---------------------------------------------------------------------------
// RSS watchdog.

TEST(ResourceWatchdog, RaisesAndClearsPressure) {
  resource::MemoryGovernor& gov = resource::MemoryGovernor::instance();
  gov.force_pressure(false);
  gov.set_watchdog_pressure(false);
  ASSERT_FALSE(gov.under_pressure());
  {
    resource::RssWatchdog watchdog(1, /*poll_interval_ms=*/5);  // 1-byte limit
    for (int i = 0; i < 200 && !gov.under_pressure(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(gov.under_pressure());
  }
  // Destruction clears the flag so one verify() can't poison the next.
  EXPECT_FALSE(gov.under_pressure());
}

// ---------------------------------------------------------------------------
// FP-exception guard.

TEST(FpGuard, DetectsRaisedFlagAndNamesTheKernel) {
  FpKernelGuard guard("demo_kernel");
  std::feraiseexcept(FE_INVALID);
  try {
    guard.check();
    FAIL() << "expected kFpException";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.code(), StatusCode::kFpException);
    const std::string what = e.what();
    EXPECT_NE(what.find("demo_kernel"), std::string::npos);
    EXPECT_NE(what.find("invalid"), std::string::npos);
  }
  // check() cleared the flags: a second check passes.
  guard.check();
}

TEST(FpGuard, RearmForgivesTransientExcursions) {
  FpKernelGuard guard("iterative_kernel");
  std::feraiseexcept(FE_OVERFLOW);  // diverging iterate...
  guard.rearm();                    // ...recovered by damping
  guard.check();                    // converged path: clean
}

TEST(FpGuard, InjectionForcesATrap) {
  FaultInjector::instance().reset();
  FaultInjector::instance().arm(FaultSite::kFpTrap, 1);
  FpKernelGuard guard("injected_kernel");
  try {
    guard.check();
    FAIL() << "expected injected kFpException";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.code(), StatusCode::kFpException);
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
  }
  FaultInjector::instance().reset();
}

// ---------------------------------------------------------------------------
// Thread pool: per-index isolation.

TEST(ThreadPoolIsolation, AllIndicesRunDespiteMultipleThrows) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> ran(100);
  EXPECT_THROW(pool.parallel_for(ran.size(),
                                 [&](std::size_t i) {
                                   ran[i].fetch_add(1);
                                   if (i % 10 == 0)
                                     throw std::runtime_error("task bug");
                                 }),
               std::runtime_error);
  for (std::size_t i = 0; i < ran.size(); ++i)
    EXPECT_EQ(ran[i].load(), 1) << "index " << i;
}

// ---------------------------------------------------------------------------
// SyMPVL cooperative cancellation.

TEST(SympvlCancel, PreCancelledTokenStopsTheReduction) {
  RcNetwork net;
  int prev = net.add_node("in");
  net.add_port(prev);
  net.stamp_port_conductance(0, 1e-3);
  for (int i = 0; i < 8; ++i) {
    const int next = net.add_node();
    net.add_resistor(prev, next, 50.0);
    net.add_capacitor(next, RcNetwork::kGround, 5e-15);
    prev = next;
  }
  CancelToken token;
  token.cancel();
  SympvlOptions opt;
  opt.cancel = &token;
  try {
    sympvl_reduce(net, true, opt);
    FAIL() << "expected kDeadlineExceeded";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(std::string(e.what()).find("sympvl_reduce"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Verifier-level governance on a small chip.

const Technology kTech = Technology::default_250nm();

class ResourceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new CellLibrary(kTech);
    CharacterizeOptions copt;
    copt.iv_grid = 11;
    chars_ = new CharacterizedLibrary(*lib_, copt);
    extractor_ = new Extractor(kTech);
    DspChipOptions chip_opt;
    chip_opt.net_count = 100;
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
  void SetUp() override {
    FaultInjector::instance().reset();
    resource::MemoryGovernor::instance().force_pressure(false);
  }
  void TearDown() override {
    FaultInjector::instance().reset();
    resource::MemoryGovernor::instance().force_pressure(false);
  }

  static VerifierOptions fast_options() {
    VerifierOptions options;
    options.glitch.align_aggressors = false;
    options.glitch.tstop = 3e-9;
    return options;
  }

  static std::string temp_path(const char* name) {
    return ::testing::TempDir() + name;
  }

  static void expect_reports_equal(const VerificationReport& a,
                                   const VerificationReport& b) {
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
      SCOPED_TRACE("finding " + std::to_string(i));
      const VictimFinding& x = a.findings[i];
      const VictimFinding& y = b.findings[i];
      EXPECT_EQ(x.net, y.net);
      EXPECT_EQ(x.peak, y.peak);  // bitwise: no tolerance
      EXPECT_EQ(x.peak_fraction, y.peak_fraction);
      EXPECT_EQ(x.violation, y.violation);
      EXPECT_EQ(x.status, y.status);
      EXPECT_EQ(x.retries, y.retries);
      EXPECT_EQ(x.error_code, y.error_code);
      EXPECT_EQ(x.error, y.error);
      EXPECT_EQ(x.aggressors_analyzed, y.aggressors_analyzed);
      EXPECT_EQ(x.reduced_order, y.reduced_order);
      EXPECT_EQ(x.em_violation, y.em_violation);
    }
    EXPECT_EQ(a.victims_eligible, b.victims_eligible);
    EXPECT_EQ(a.victims_analyzed, b.victims_analyzed);
    EXPECT_EQ(a.victims_screened_out, b.victims_screened_out);
    EXPECT_EQ(a.victims_retried, b.victims_retried);
    EXPECT_EQ(a.victims_fallback, b.victims_fallback);
    EXPECT_EQ(a.victims_failed, b.victims_failed);
    EXPECT_EQ(a.victims_deadline_bound, b.victims_deadline_bound);
    EXPECT_EQ(a.victims_resource_bound, b.victims_resource_bound);
    EXPECT_EQ(a.violations, b.violations);
  }

  static void expect_accounting_invariant(const VerificationReport& r) {
    EXPECT_EQ(r.victims_eligible, r.victims_analyzed + r.victims_screened_out +
                                      r.victims_fallback + r.victims_failed);
    EXPECT_LE(r.victims_deadline_bound + r.victims_resource_bound,
              r.victims_fallback);
  }

  static CellLibrary* lib_;
  static CharacterizedLibrary* chars_;
  static Extractor* extractor_;
  static ChipDesign* design_;
};

CellLibrary* ResourceFixture::lib_ = nullptr;
CharacterizedLibrary* ResourceFixture::chars_ = nullptr;
Extractor* ResourceFixture::extractor_ = nullptr;
ChipDesign* ResourceFixture::design_ = nullptr;

TEST_F(ResourceFixture, TinyClusterBudgetDegradesToResourceBound) {
  ChipVerifier verifier(*extractor_, *chars_);
  VerifierOptions options = fast_options();
  options.cluster_mem_mb = 0.004;  // ~4 KiB: every dense matrix breaches
  const VerificationReport report = verifier.verify(*design_, options);

  expect_accounting_invariant(report);
  EXPECT_GE(report.victims_resource_bound, 1u);
  EXPECT_EQ(report.victims_failed, 0u);  // a breach is recoverable, never fatal
  for (const auto& f : report.findings) {
    if (f.status != FindingStatus::kResourceBound) continue;
    EXPECT_EQ(f.error_code, StatusCode::kResourceExceeded);
    EXPECT_GE(f.retries, 1u);
    EXPECT_GE(f.peak_fraction, 0.0);
    EXPECT_LE(f.peak_fraction, 1.0);
  }
}

TEST_F(ResourceFixture, GenerousMemoryBudgetChangesNothing) {
  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport baseline = verifier.verify(*design_, fast_options());
  VerifierOptions governed = fast_options();
  governed.cluster_mem_mb = 1024.0;
  governed.global_mem_soft_mb = 1024.0 * 1024.0;
  const VerificationReport report = verifier.verify(*design_, governed);
  expect_reports_equal(baseline, report);
  EXPECT_EQ(report.victims_resource_bound, 0u);
}

TEST_F(ResourceFixture, ForcedPressureShedsLargestClustersToBound) {
  ChipVerifier verifier(*extractor_, *chars_);
  resource::MemoryGovernor::instance().force_pressure(true);
  const VerificationReport report = verifier.verify(*design_, fast_options());
  resource::MemoryGovernor::instance().force_pressure(false);

  expect_accounting_invariant(report);
  EXPECT_GE(report.victims_resource_bound, 1u);
  bool saw_shed = false;
  for (const auto& f : report.findings) {
    if (f.status != FindingStatus::kResourceBound) continue;
    EXPECT_EQ(f.error_code, StatusCode::kResourceExceeded);
    if (f.error.find("shed") != std::string::npos) saw_shed = true;
  }
  EXPECT_TRUE(saw_shed);
}

TEST_F(ResourceFixture, FpTrapInjectionRecoversThroughTheLadder) {
  ChipVerifier verifier(*extractor_, *chars_);
  // Warm the lazy cell-characterization cache before arming: its SPICE
  // runs execute outside the ladder (shared, main-thread), so a fault
  // injected there tests nothing about per-victim recovery.
  verifier.verify(*design_, fast_options());
  // One forced FP trap per victim: rung 0 fails with the typed
  // kFpException, rung 1 succeeds.
  FaultInjector::instance().arm(FaultSite::kFpTrap, 1, /*max_fires=*/1);
  const VerificationReport report = verifier.verify(*design_, fast_options());
  FaultInjector::instance().reset();

  expect_accounting_invariant(report);
  EXPECT_GE(report.victims_retried, 1u);
  bool saw_fp = false;
  for (const auto& f : report.findings)
    if (f.error_code == StatusCode::kFpException) {
      saw_fp = true;
      EXPECT_GE(f.retries, 1u);
    }
  EXPECT_TRUE(saw_fp);
}

TEST_F(ResourceFixture, WorkerTaskFaultOutsideLadderIsIsolatedAndTyped) {
  ChipVerifier verifier(*extractor_, *chars_);
  VerifierOptions options = fast_options();
  options.threads = 3;
  FaultInjector::instance().arm(FaultSite::kVictimTask, 3);
  const VerificationReport report = verifier.verify(*design_, options);
  FaultInjector::instance().reset();

  expect_accounting_invariant(report);
  EXPECT_GE(report.victims_failed, 1u);
  for (const auto& f : report.findings) {
    if (f.status != FindingStatus::kFailed) continue;
    EXPECT_NE(f.error.find("worker-task"), std::string::npos);
    // Maximally pessimistic, flagged for manual review.
    EXPECT_TRUE(f.violation);
    EXPECT_EQ(f.peak_fraction, 1.0);
  }
}

TEST_F(ResourceFixture, VictimKeyedInjectionMakesParallelMatchSerial) {
  ChipVerifier verifier(*extractor_, *chars_);
  VerifierOptions serial = fast_options();
  VerifierOptions parallel = fast_options();
  parallel.threads = 4;

  // Period 5 hits different victims depending on arrival order under the
  // legacy global counter; victim-keyed decisions must not.
  FaultInjector::instance().arm(FaultSite::kReducedNewton, 5);
  const VerificationReport a = verifier.verify(*design_, serial);
  FaultInjector::instance().arm(FaultSite::kReducedNewton, 5);
  const VerificationReport b = verifier.verify(*design_, parallel);
  FaultInjector::instance().reset();

  EXPECT_GE(a.victims_retried, 1u);
  expect_reports_equal(a, b);
}

TEST_F(ResourceFixture, ResumeRefusesAJournalWithDifferentOptions) {
  ChipVerifier verifier(*extractor_, *chars_);
  const std::string path = temp_path("xtv_resource_options.journal");
  VerifierOptions options = fast_options();
  options.journal_path = path;
  const VerificationReport first = verifier.verify(*design_, options);

  // Same result-affecting options: resume is accepted and reproduces the
  // uninterrupted report from the journal alone.
  options.resume = true;
  const VerificationReport resumed = verifier.verify(*design_, options);
  expect_reports_equal(first, resumed);

  // A result-affecting change must be refused with an actionable message.
  VerifierOptions changed = options;
  changed.glitch_threshold = 0.2;
  try {
    verifier.verify(*design_, changed);
    FAIL() << "expected kInvalidInput";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("options"), std::string::npos);
  }

  // Scheduling-only changes (threads) keep the hash — and the journal.
  VerifierOptions rethreaded = options;
  rethreaded.threads = 2;
  EXPECT_EQ(options_result_hash(options), options_result_hash(rethreaded));
  EXPECT_NE(options_result_hash(options), options_result_hash(changed));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xtv
