// Execution-model tests: the worker pool, the per-cluster deadline, and
// the crash-safe result journal. The contract under test is DESIGN.md §8:
// a parallel run is bit-identical to the serial one, a budget-expired
// cluster degrades to the conservative bound without stalling the pool,
// and a killed-and-resumed run reproduces the uninterrupted report while
// re-analyzing only the victims the journal lost.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "chipgen/dsp_chip.h"
#include "core/journal.h"
#include "core/verifier.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace xtv {
namespace {

const Technology kTech = Technology::default_250nm();

class ParallelFixture : public ::testing::Test {
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
  void SetUp() override { FaultInjector::instance().reset(); }
  void TearDown() override { FaultInjector::instance().reset(); }

  static VerifierOptions fast_options() {
    VerifierOptions options;
    options.glitch.align_aggressors = false;
    options.glitch.tstop = 3e-9;
    return options;
  }

  static std::string temp_path(const char* name) {
    return ::testing::TempDir() + name;
  }

  /// Full structural equality of two reports: every finding field (CPU
  /// time only when `compare_cpu` — fresh re-analysis re-times it) plus
  /// every accounting counter.
  static void expect_reports_equal(const VerificationReport& a,
                                   const VerificationReport& b,
                                   bool compare_cpu) {
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
      EXPECT_EQ(x.aggressors_dropped_by_correlation,
                y.aggressors_dropped_by_correlation);
      EXPECT_EQ(x.aggressors_dropped_by_window, y.aggressors_dropped_by_window);
      EXPECT_EQ(x.reduced_order, y.reduced_order);
      EXPECT_EQ(x.delay_decoupled, y.delay_decoupled);
      EXPECT_EQ(x.delay_coupled, y.delay_coupled);
      EXPECT_EQ(x.driver_rms_current, y.driver_rms_current);
      EXPECT_EQ(x.em_violation, y.em_violation);
      if (compare_cpu) {
        EXPECT_EQ(x.cpu_seconds, y.cpu_seconds);
      }
    }
    EXPECT_EQ(a.victims_eligible, b.victims_eligible);
    EXPECT_EQ(a.victims_analyzed, b.victims_analyzed);
    EXPECT_EQ(a.victims_screened_out, b.victims_screened_out);
    EXPECT_EQ(a.victims_retried, b.victims_retried);
    EXPECT_EQ(a.victims_fallback, b.victims_fallback);
    EXPECT_EQ(a.victims_failed, b.victims_failed);
    EXPECT_EQ(a.victims_deadline_bound, b.victims_deadline_bound);
    EXPECT_EQ(a.violations, b.violations);
  }

  static void expect_accounting_invariant(const VerificationReport& r) {
    EXPECT_EQ(r.victims_eligible, r.victims_analyzed + r.victims_screened_out +
                                      r.victims_fallback + r.victims_failed);
    EXPECT_LE(r.victims_deadline_bound, r.victims_fallback);
    std::size_t retried = 0;
    for (const auto& f : r.findings)
      if (f.retries > 0) ++retried;
    EXPECT_EQ(r.victims_retried, retried);
  }

  static CellLibrary* lib_;
  static CharacterizedLibrary* chars_;
  static Extractor* extractor_;
  static ChipDesign* design_;
};

CellLibrary* ParallelFixture::lib_ = nullptr;
CharacterizedLibrary* ParallelFixture::chars_ = nullptr;
Extractor* ParallelFixture::extractor_ = nullptr;
ChipDesign* ParallelFixture::design_ = nullptr;

// ---------------------------------------------------------------------------
// The pool itself.

TEST_F(ParallelFixture, ThreadPoolRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<std::size_t> sum{0};
  std::vector<std::atomic<int>> counts(257);
  pool.parallel_for(counts.size(), [&](std::size_t i) {
    counts[i].fetch_add(1);
    sum.fetch_add(i);
  });
  for (std::size_t i = 0; i < counts.size(); ++i)
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  EXPECT_EQ(sum.load(), counts.size() * (counts.size() - 1) / 2);
}

TEST_F(ParallelFixture, ThreadPoolPropagatesTaskExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(16,
                                 [&](std::size_t i) {
                                   if (i == 7)
                                     throw std::runtime_error("task 7 died");
                                 }),
               std::runtime_error);
  // The pool stays usable after a failed batch.
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

// ---------------------------------------------------------------------------
// Journal encode/decode.

TEST_F(ParallelFixture, JournalRecordRoundTripsBitExactly) {
  JournalRecord rec;
  rec.screened = false;
  rec.finding.net = 42;
  rec.finding.peak = -1.2345678901234567e-3;
  rec.finding.peak_fraction = 0.49999999999999994;
  rec.finding.violation = true;
  rec.finding.status = FindingStatus::kDeadlineBound;
  rec.finding.retries = 3;
  rec.finding.error_code = StatusCode::kDeadlineExceeded;
  rec.finding.error = "ReducedSimulator: 100% budget -gone\nnext line";
  rec.finding.aggressors_analyzed = 5;
  rec.finding.aggressors_dropped_by_correlation = 2;
  rec.finding.aggressors_dropped_by_window = 7;
  rec.finding.cpu_seconds = 1.5e-3;
  rec.finding.reduced_order = 12;
  rec.finding.delay_decoupled = 3.1e-10;
  rec.finding.delay_coupled = 4.7e-10;
  rec.finding.driver_rms_current = 8.25e-4;
  rec.finding.em_violation = true;

  const std::string payload = journal_encode(rec);
  EXPECT_EQ(payload.find('\n'), std::string::npos);
  JournalRecord back;
  ASSERT_TRUE(journal_decode(payload, back));
  EXPECT_EQ(back.screened, rec.screened);
  EXPECT_EQ(back.finding.net, rec.finding.net);
  EXPECT_EQ(back.finding.peak, rec.finding.peak);
  EXPECT_EQ(back.finding.peak_fraction, rec.finding.peak_fraction);
  EXPECT_EQ(back.finding.violation, rec.finding.violation);
  EXPECT_EQ(back.finding.status, rec.finding.status);
  EXPECT_EQ(back.finding.retries, rec.finding.retries);
  EXPECT_EQ(back.finding.error_code, rec.finding.error_code);
  EXPECT_EQ(back.finding.error, rec.finding.error);
  EXPECT_EQ(back.finding.aggressors_analyzed, rec.finding.aggressors_analyzed);
  EXPECT_EQ(back.finding.cpu_seconds, rec.finding.cpu_seconds);
  EXPECT_EQ(back.finding.reduced_order, rec.finding.reduced_order);
  EXPECT_EQ(back.finding.delay_decoupled, rec.finding.delay_decoupled);
  EXPECT_EQ(back.finding.delay_coupled, rec.finding.delay_coupled);
  EXPECT_EQ(back.finding.driver_rms_current, rec.finding.driver_rms_current);
  EXPECT_EQ(back.finding.em_violation, rec.finding.em_violation);

  // Screened records round-trip too (empty error encodes as "-").
  JournalRecord screened;
  screened.screened = true;
  screened.finding.net = 7;
  screened.finding.cpu_seconds = 2.5e-5;
  JournalRecord screened_back;
  ASSERT_TRUE(journal_decode(journal_encode(screened), screened_back));
  EXPECT_TRUE(screened_back.screened);
  EXPECT_EQ(screened_back.finding.net, 7u);
  EXPECT_EQ(screened_back.finding.cpu_seconds, 2.5e-5);
  EXPECT_TRUE(screened_back.finding.error.empty());
}

TEST_F(ParallelFixture, JournalDecodeRejectsMalformedPayloads) {
  JournalRecord rec;
  rec.finding.net = 3;
  const std::string good = journal_encode(rec);
  JournalRecord out;
  EXPECT_FALSE(journal_decode("", out));
  EXPECT_FALSE(journal_decode(good + " extra-field", out));
  EXPECT_FALSE(journal_decode(good.substr(0, good.size() / 2), out));
  std::string bad_status = good;
  bad_status[2] = 'x';  // corrupt a field in place
  EXPECT_FALSE(journal_decode(bad_status, out) &&
               journal_encode(out) == bad_status);
}

TEST_F(ParallelFixture, JournalLoadStopsAtTornTail) {
  const std::string path = temp_path("xtv_torn.journal");
  {
    ResultJournal journal(path, /*options_hash=*/0);
    for (std::size_t n = 0; n < 3; ++n) {
      JournalRecord rec;
      rec.finding.net = n;
      rec.finding.peak = 0.1 * static_cast<double>(n + 1);
      journal.append(rec);
    }
  }
  auto intact = ResultJournal::load(path);
  ASSERT_EQ(intact.records.size(), 3u);
  EXPECT_FALSE(intact.tail_discarded);

  // A crash mid-append leaves a torn, checksum-less final line.
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "xtvj2 0 partial-record-cut-by-the-cra";
  }
  auto torn = ResultJournal::load(path);
  EXPECT_EQ(torn.records.size(), 3u);
  EXPECT_TRUE(torn.tail_discarded);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(torn.records[n].finding.net, n);
    EXPECT_EQ(torn.records[n].finding.peak, 0.1 * static_cast<double>(n + 1));
  }

  // A bit-flip inside an intact-looking line fails its checksum: here in
  // the last record's payload, just before its 16-hex checksum.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(intact.valid_bytes - 20);
    f.put('#');
  }
  auto corrupt = ResultJournal::load(path);
  EXPECT_EQ(corrupt.records.size(), 2u);
  EXPECT_TRUE(corrupt.tail_discarded);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Parallel == serial.

TEST_F(ParallelFixture, ParallelRunMatchesSerialBitExactly) {
  VerifierOptions options = fast_options();
  ChipVerifier verifier(*extractor_, *chars_);

  options.threads = 1;
  const VerificationReport serial = verifier.verify(*design_, options);
  ASSERT_GT(serial.findings.size(), 0u);
  expect_accounting_invariant(serial);

  options.threads = 4;
  const VerificationReport parallel = verifier.verify(*design_, options);
  expect_reports_equal(serial, parallel, /*compare_cpu=*/false);
  expect_accounting_invariant(parallel);
}

TEST_F(ParallelFixture, ParallelMatchesSerialUnderEveryHitInjection) {
  // period 1 fires on every hit, so each cluster fails identically no
  // matter which worker reaches it first — the reports must still match.
  VerifierOptions options = fast_options();
  ChipVerifier verifier(*extractor_, *chars_);
  auto& fi = FaultInjector::instance();

  fi.arm(FaultSite::kReducedNewton, /*period=*/1);
  options.threads = 1;
  const VerificationReport serial = verifier.verify(*design_, options);

  fi.arm(FaultSite::kReducedNewton, /*period=*/1);  // re-arm: fresh counters
  options.threads = 4;
  const VerificationReport parallel = verifier.verify(*design_, options);
  fi.reset();

  EXPECT_GT(serial.victims_fallback + serial.victims_failed, 0u);
  EXPECT_EQ(serial.victims_analyzed, 0u);  // every MOR attempt was killed
  expect_reports_equal(serial, parallel, /*compare_cpu=*/false);
  expect_accounting_invariant(serial);
  expect_accounting_invariant(parallel);
}

TEST_F(ParallelFixture, AccountingInvariantHoldsUnderParallelPeriodicInjection) {
  // Periodic (non-every-hit) injection is order-dependent under threads,
  // so only the invariants are asserted, not bit-equality.
  VerifierOptions options = fast_options();
  options.threads = 4;
  ChipVerifier verifier(*extractor_, *chars_);
  auto& fi = FaultInjector::instance();
  fi.arm(FaultSite::kReducedNewton, /*period=*/5);
  fi.arm(FaultSite::kLanczosSweep, /*period=*/7);
  const VerificationReport report = verifier.verify(*design_, options);
  fi.reset();

  EXPECT_GT(report.victims_retried, 0u);
  expect_accounting_invariant(report);
}

// ---------------------------------------------------------------------------
// Deadlines.

TEST_F(ParallelFixture, ExpiredClusterBudgetDegradesToDeadlineBound) {
  VerifierOptions options = fast_options();
  options.threads = 4;
  options.cluster_deadline_ms = 1e-6;  // expires before the first poll
  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport report = verifier.verify(*design_, options);

  ASSERT_GT(report.findings.size(), 0u);
  expect_accounting_invariant(report);
  EXPECT_EQ(report.victims_analyzed, 0u);
  EXPECT_EQ(report.victims_failed, 0u);
  EXPECT_EQ(report.victims_deadline_bound, report.findings.size());
  for (const auto& f : report.findings) {
    EXPECT_EQ(f.status, FindingStatus::kDeadlineBound);
    EXPECT_EQ(f.error_code, StatusCode::kDeadlineExceeded);
    EXPECT_GT(f.retries, 0u);
    // The bound is conservative: a pass under it is a real pass.
    EXPECT_GE(f.peak_fraction, 0.0);
    EXPECT_LE(f.peak_fraction, 1.0);
  }
}

TEST_F(ParallelFixture, GenerousBudgetChangesNothing) {
  VerifierOptions options = fast_options();
  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport plain = verifier.verify(*design_, options);
  options.cluster_deadline_ms = 600000.0;  // ten minutes per cluster
  const VerificationReport budgeted = verifier.verify(*design_, options);
  expect_reports_equal(plain, budgeted, /*compare_cpu=*/false);
}

// ---------------------------------------------------------------------------
// Journal + resume.

TEST_F(ParallelFixture, ResumeAfterSimulatedKillReproducesTheReport) {
  const std::string path = temp_path("xtv_resume.journal");
  VerifierOptions options = fast_options();
  options.journal_path = path;
  ChipVerifier verifier(*extractor_, *chars_);
  auto& fi = FaultInjector::instance();

  // Hit-count MOR reductions without ever firing: hits == victims that
  // actually entered analysis.
  fi.arm(FaultSite::kLanczosSweep, /*period=*/std::uint64_t{1} << 62);
  const VerificationReport full = verifier.verify(*design_, options);
  const std::uint64_t hits_full = fi.hits(FaultSite::kLanczosSweep);
  ASSERT_GT(hits_full, 0u);

  // Simulate a mid-run kill: keep roughly half the journal and tear the
  // next record in two.
  std::ostringstream kept;
  {
    std::ifstream in(path, std::ios::binary);
    std::string line;
    std::size_t total = 0;
    while (std::getline(in, line)) ++total;
    in.clear();
    in.seekg(0);
    for (std::size_t n = 0; n < total / 2 && std::getline(in, line); ++n)
      kept << line << '\n';
    if (std::getline(in, line)) kept << line.substr(0, line.size() / 2);
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << kept.str();
  }

  options.resume = true;
  fi.arm(FaultSite::kLanczosSweep, /*period=*/std::uint64_t{1} << 62);
  const VerificationReport resumed = verifier.verify(*design_, options);
  const std::uint64_t hits_resume = fi.hits(FaultSite::kLanczosSweep);
  fi.reset();

  // Only the un-journaled victims were re-analyzed...
  EXPECT_GT(hits_resume, 0u);
  EXPECT_LT(hits_resume, hits_full);
  // ...and the merged report is the uninterrupted one.
  expect_reports_equal(full, resumed, /*compare_cpu=*/false);
  expect_accounting_invariant(resumed);

  // Resuming from the now-complete journal re-analyzes nothing and even
  // restores per-victim CPU times bit-exactly (hexfloat round-trip) —
  // against the resumed run, whose journal re-timed the re-analyzed tail.
  fi.arm(FaultSite::kLanczosSweep, /*period=*/std::uint64_t{1} << 62);
  const VerificationReport replay = verifier.verify(*design_, options);
  EXPECT_EQ(fi.hits(FaultSite::kLanczosSweep), 0u);
  fi.reset();
  expect_reports_equal(resumed, replay, /*compare_cpu=*/true);
  EXPECT_EQ(resumed.total_cpu_seconds, replay.total_cpu_seconds);
  std::remove(path.c_str());
}

TEST_F(ParallelFixture, ResumeWithoutJournalPathIsRejected) {
  VerifierOptions options = fast_options();
  options.resume = true;
  ChipVerifier verifier(*extractor_, *chars_);
  EXPECT_THROW(verifier.verify(*design_, options), std::runtime_error);
}

}  // namespace
}  // namespace xtv
