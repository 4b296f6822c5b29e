// Process-isolated execution tests (DESIGN.md §12). The contract under
// test: a clean multi-process run is bit-identical to the in-process one;
// a forked holder that dies (abort, SIGSEGV, SIGKILL) fails only the
// victim it held, which is retried on another holder and — if it kills
// that one too — conceded as kShardCrashed with a finite conservative
// bound; the merged journal is written atomically and resumes cleanly,
// including after a killed run leaves its insurance file behind.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "chipgen/dsp_chip.h"
#include "core/journal.h"
#include "core/verifier.h"
#include "core/wire.h"
#include "util/fault_injection.h"

namespace xtv {
namespace {

const Technology kTech = Technology::default_250nm();

/// Scoped environment variable (the shard test hooks are env-driven).
struct EnvGuard {
  std::string name;
  EnvGuard(const char* n, const std::string& v) : name(n) {
    ::setenv(n, v.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(name.c_str()); }
};

class ShardFixture : public ::testing::Test {
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
    delete baseline_;
    design_ = nullptr;
    chars_ = nullptr;
    lib_ = nullptr;
    extractor_ = nullptr;
    baseline_ = nullptr;
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

  /// Crash-free in-process reference run, computed once for the suite.
  static const VerificationReport& baseline_report() {
    if (!baseline_) {
      ChipVerifier verifier(*extractor_, *chars_);
      baseline_ =
          new VerificationReport(verifier.verify(*design_, fast_options()));
    }
    return *baseline_;
  }

  /// Bitwise equality of two reports' findings and accounting, optionally
  /// exempting one victim net (the deliberately crashed one). CPU times
  /// are re-measured per run and never compared.
  static void expect_reports_equal_except(const VerificationReport& a,
                                          const VerificationReport& b,
                                          long long exclude_net = -1) {
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
      SCOPED_TRACE("finding " + std::to_string(i));
      const VictimFinding& x = a.findings[i];
      const VictimFinding& y = b.findings[i];
      EXPECT_EQ(x.net, y.net);
      if (static_cast<long long>(x.net) == exclude_net) continue;
      EXPECT_EQ(x.peak, y.peak);  // bitwise: no tolerance
      EXPECT_EQ(x.peak_fraction, y.peak_fraction);
      EXPECT_EQ(x.violation, y.violation);
      EXPECT_EQ(x.status, y.status);
      EXPECT_EQ(x.retries, y.retries);
      EXPECT_EQ(x.error_code, y.error_code);
      EXPECT_EQ(x.error, y.error);
      EXPECT_EQ(x.aggressors_analyzed, y.aggressors_analyzed);
      EXPECT_EQ(x.reduced_order, y.reduced_order);
      EXPECT_EQ(x.driver_rms_current, y.driver_rms_current);
      EXPECT_EQ(x.em_violation, y.em_violation);
    }
    EXPECT_EQ(a.victims_eligible, b.victims_eligible);
    EXPECT_EQ(a.victims_screened_out, b.victims_screened_out);
    if (exclude_net < 0) {
      EXPECT_EQ(a.victims_analyzed, b.victims_analyzed);
      EXPECT_EQ(a.victims_fallback, b.victims_fallback);
      EXPECT_EQ(a.victims_failed, b.victims_failed);
      EXPECT_EQ(a.violations, b.violations);
    }
  }

  static void expect_accounting_invariant(const VerificationReport& r) {
    EXPECT_EQ(r.victims_eligible, r.victims_analyzed + r.victims_screened_out +
                                      r.victims_fallback + r.victims_failed);
    EXPECT_LE(r.victims_shard_crashed, r.victims_fallback);
  }

  /// The finding for `net`, or nullptr.
  static const VictimFinding* find_net(const VerificationReport& r,
                                       std::size_t net) {
    for (const auto& f : r.findings)
      if (f.net == net) return &f;
    return nullptr;
  }

  static CellLibrary* lib_;
  static CharacterizedLibrary* chars_;
  static Extractor* extractor_;
  static ChipDesign* design_;
  static VerificationReport* baseline_;
};

CellLibrary* ShardFixture::lib_ = nullptr;
CharacterizedLibrary* ShardFixture::chars_ = nullptr;
Extractor* ShardFixture::extractor_ = nullptr;
ChipDesign* ShardFixture::design_ = nullptr;
VerificationReport* ShardFixture::baseline_ = nullptr;

// ---------------------------------------------------------------------------
// Wire format.

TEST_F(ShardFixture, WireFramesRoundTripThroughArbitraryChunking) {
  JournalRecord rec;
  rec.finding.net = 42;
  rec.finding.peak = -1.2345678901234567e-3;
  rec.finding.status = FindingStatus::kDeadlineBound;
  rec.finding.error = "with spaces\nand a newline";

  std::vector<WireFrame> sent;
  sent.push_back({WireType::kWorkerReady, "00000000000000ab 1234"});
  sent.push_back({WireType::kUnitAssign, "3 1 42 43"});
  sent.push_back({WireType::kHeartbeat, "7"});
  sent.push_back({WireType::kUnitResult, journal_encode(rec)});
  sent.push_back({WireType::kUnitResult, "3 1 s 43"});
  sent.push_back({WireType::kUnitDone, "3 1 1"});

  std::string stream;
  for (const auto& f : sent) stream += wire_encode_frame(f.type, f.payload);

  // Feed one byte at a time: pipes deliver arbitrary chunks.
  WireDecoder decoder;
  std::vector<WireFrame> got;
  WireFrame frame;
  for (char c : stream) {
    decoder.feed(&c, 1);
    while (decoder.next(&frame)) got.push_back(frame);
  }
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].type, sent[i].type) << i;
    EXPECT_EQ(got[i].payload, sent[i].payload) << i;
  }
  EXPECT_FALSE(decoder.corrupt());
  EXPECT_EQ(decoder.buffered(), 0u);

  // The result payload decodes back bit-exactly.
  JournalRecord back;
  ASSERT_TRUE(journal_decode(got[3].payload, back));
  EXPECT_EQ(back.finding.peak, rec.finding.peak);
  EXPECT_EQ(back.finding.error, rec.finding.error);
}

TEST_F(ShardFixture, WireDecoderLatchesCorruptionAndKeepsTornTails) {
  const std::string good = wire_encode_frame(WireType::kHeartbeat, "5");

  // A truncated final frame is not corruption — it is the expected torn
  // tail of a crashed holder.
  WireDecoder torn;
  torn.feed(good.data(), good.size());
  torn.feed(good.data(), good.size() / 2);
  WireFrame frame;
  ASSERT_TRUE(torn.next(&frame));
  EXPECT_EQ(frame.payload, "5");
  EXPECT_FALSE(torn.next(&frame));
  EXPECT_FALSE(torn.corrupt());
  EXPECT_GT(torn.buffered(), 0u);

  // A flipped payload byte fails the checksum and latches corrupt.
  std::string flipped = good;
  flipped[flipped.size() - 9] ^= 0x01;  // last payload byte
  WireDecoder bad;
  bad.feed(flipped.data(), flipped.size());
  EXPECT_FALSE(bad.next(&frame));
  EXPECT_TRUE(bad.corrupt());
  // ...permanently: a following pristine frame is not trusted either.
  bad.feed(good.data(), good.size());
  EXPECT_FALSE(bad.next(&frame));

  // Garbage where magic should be latches immediately.
  WireDecoder garbage;
  garbage.feed("not-a-frame-at-all", 18);
  EXPECT_FALSE(garbage.next(&frame));
  EXPECT_TRUE(garbage.corrupt());
}

// ---------------------------------------------------------------------------
// Legacy crash markers and atomic journal finalization.

TEST_F(ShardFixture, CrashMarkerWritesParseAndResumeTruncatesThem) {
  // Shard journals from older builds can end in the crash marker a dying
  // worker's signal handler wrote ("xtvjc <victim> <signal>"). Such a
  // journal must still load: the marker ends the intact prefix.
  const std::string path = temp_path("xtv_marker.journal");
  {
    ResultJournal journal(path, /*options_hash=*/0x5eed);
    JournalRecord rec;
    rec.finding.net = 5;
    journal.append(rec);
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "xtvjc 77 " << SIGSEGV << "\n";
  }
  auto loaded = ResultJournal::load(path);
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.records[0].finding.net, 5u);
  EXPECT_TRUE(loaded.tail_discarded);
  std::remove(path.c_str());
}

TEST_F(ShardFixture, AtomicFinalizeLeavesNoTmpAndRoundTrips) {
  const std::string path = temp_path("xtv_atomic.journal");
  std::vector<JournalRecord> recs(3);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    recs[i].finding.net = 10 + i;
    recs[i].finding.peak = -0.125 * static_cast<double>(i + 1);
  }
  std::vector<const JournalRecord*> ptrs;
  for (const auto& r : recs) ptrs.push_back(&r);
  ResultJournal::write_atomic(path, ptrs, /*options_hash=*/0xabcd);

  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
  auto loaded = ResultJournal::load(path);
  EXPECT_TRUE(loaded.has_header);
  EXPECT_EQ(loaded.header_hash, 0xabcdu);
  ASSERT_EQ(loaded.records.size(), 3u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(loaded.records[i].finding.net, recs[i].finding.net);
    EXPECT_EQ(loaded.records[i].finding.peak, recs[i].finding.peak);
  }

  // A rewrite fully replaces the old journal — no stale tail survives.
  ptrs.resize(1);
  ResultJournal::write_atomic(path, ptrs, 0xabcd);
  auto rewritten = ResultJournal::load(path);
  ASSERT_EQ(rewritten.records.size(), 1u);
  EXPECT_FALSE(rewritten.tail_discarded);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Clean multi-process runs.

TEST_F(ShardFixture, ProcessRunMatchesInProcessBitExactly) {
  const VerificationReport& serial = baseline_report();
  ASSERT_GT(serial.findings.size(), 0u);

  ChipVerifier verifier(*extractor_, *chars_);
  const std::string j1 = temp_path("xtv_shard_p1.journal");
  const std::string j4 = temp_path("xtv_shard_p4.journal");
  const std::string jt = temp_path("xtv_shard_t4.journal");

  VerifierOptions options = fast_options();
  options.processes = 1;
  options.journal_path = j1;
  const VerificationReport one = verifier.verify(*design_, options);

  options.processes = 4;
  options.journal_path = j4;
  const VerificationReport four = verifier.verify(*design_, options);

  // The in-process pool finishes victims out of net order; its journal
  // must not show it.
  options.processes = 0;
  options.threads = 4;
  options.journal_path = jt;
  verifier.verify(*design_, options);

  expect_reports_equal_except(serial, one);
  expect_reports_equal_except(serial, four);
  expect_accounting_invariant(four);
  EXPECT_EQ(four.worker_crashes, 0u);
  EXPECT_EQ(four.shard_restarts, 0u);
  EXPECT_EQ(four.victims_quarantined, 0u);
  EXPECT_EQ(four.victims_shard_crashed, 0u);

  // All three merged journals hold the same records in the same stable
  // order (CPU time is the one per-run field).
  auto a = ResultJournal::load(j1);
  EXPECT_TRUE(a.has_header);
  ASSERT_EQ(a.records.size(), serial.victims_eligible);
  for (const std::string& other : {j4, jt}) {
    SCOPED_TRACE(other);
    auto b = ResultJournal::load(other);
    EXPECT_EQ(a.header_hash, b.header_hash);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
      EXPECT_EQ(a.records[i].finding.net, b.records[i].finding.net);
      EXPECT_EQ(a.records[i].finding.peak, b.records[i].finding.peak);
      EXPECT_EQ(a.records[i].finding.status, b.records[i].finding.status);
    }
    // The insurance file was retired after finalization.
    EXPECT_NE(::access(journal_insurance_path(other).c_str(), F_OK), 0);
  }
  std::remove(j1.c_str());
  std::remove(j4.c_str());
  std::remove(jt.c_str());
}

TEST_F(ShardFixture, InProcessRecordIsInsuredBeforeItStreams) {
  // Every backend settles through one sink: the record is appended (and
  // fsync'd) to <journal>.shard0 before on_record sees it, so the k-th
  // streamed record finds at least k records insured.
  const std::string path = temp_path("xtv_shard_insured.journal");
  const std::string insurance = journal_insurance_path(path);
  constexpr std::size_t kProbeAt = 5;
  std::mutex mutex;
  std::size_t seen = 0;
  std::size_t insured_at_probe = 0;

  ChipVerifier verifier(*extractor_, *chars_);
  VerifierOptions options = fast_options();
  options.threads = 2;
  options.journal_path = path;
  options.on_record = [&](const JournalRecord&) {
    std::lock_guard<std::mutex> lock(mutex);
    if (++seen == kProbeAt)
      insured_at_probe = ResultJournal::load(insurance).records.size();
  };
  const VerificationReport report = verifier.verify(*design_, options);
  ASSERT_GT(report.victims_eligible, kProbeAt);
  EXPECT_EQ(seen, report.victims_eligible);
  EXPECT_GE(insured_at_probe, kProbeAt);

  // After verify() the insurance file is gone and the journal holds every
  // record in candidate (net) order.
  EXPECT_NE(::access(insurance.c_str(), F_OK), 0);
  auto merged = ResultJournal::load(path);
  EXPECT_FALSE(merged.tail_discarded);
  ASSERT_EQ(merged.records.size(), report.victims_eligible);
  for (std::size_t i = 1; i < merged.records.size(); ++i)
    EXPECT_LT(merged.records[i - 1].finding.net, merged.records[i].finding.net);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Retry elsewhere, then concede.

TEST_F(ShardFixture, CrashedVictimIsQuarantinedThenConcededWithFiniteBound) {
  const VerificationReport& clean = baseline_report();
  ASSERT_GT(clean.findings.size(), 4u);
  const std::size_t victim = clean.findings[1].net;

  ChipVerifier verifier(*extractor_, *chars_);
  VerifierOptions options = fast_options();
  options.processes = 2;
  options.journal_path = temp_path("xtv_shard_crash.journal");

  VerificationReport crashed;
  {
    EnvGuard net("XTV_TEST_CRASH_VICTIM", std::to_string(victim));
    EnvGuard mode("XTV_TEST_CRASH_MODE", "segv");
    crashed = verifier.verify(*design_, options);
  }

  // The holder crashed at the victim, the retry on another holder
  // crashed again (the hook re-fires in every holder), and the
  // coordinator conceded it to its conservative bound.
  EXPECT_EQ(crashed.worker_crashes, 2u);
  EXPECT_EQ(crashed.victims_quarantined, 1u);
  EXPECT_EQ(crashed.shard_restarts, 1u);
  EXPECT_EQ(crashed.victims_shard_crashed, 1u);
  expect_accounting_invariant(crashed);

  const VictimFinding* f = find_net(crashed, victim);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->status, FindingStatus::kShardCrashed);
  EXPECT_EQ(f->error_code, StatusCode::kWorkerCrashed);
  EXPECT_FALSE(f->error.empty());
  // The conceded bound is finite and conservative.
  const double vdd = kTech.vdd;
  EXPECT_TRUE(std::isfinite(f->peak));
  EXPECT_LE(std::abs(f->peak), vdd * (1.0 + 1e-12));
  EXPECT_GE(f->peak_fraction, 0.0);
  EXPECT_LE(f->peak_fraction, 1.0);

  // Every other victim is bit-identical to the crash-free run.
  expect_reports_equal_except(clean, crashed,
                              static_cast<long long>(victim));
  std::remove(options.journal_path.c_str());
}

TEST_F(ShardFixture, CrashOnceRecoversFullyViaTheQuarantineRetry) {
  const VerificationReport& clean = baseline_report();
  const std::size_t victim = clean.findings[1].net;
  const std::string once = temp_path("xtv_crash_once.marker");
  std::remove(once.c_str());

  ChipVerifier verifier(*extractor_, *chars_);
  VerifierOptions options = fast_options();
  options.processes = 2;

  VerificationReport report;
  {
    EnvGuard net("XTV_TEST_CRASH_VICTIM", std::to_string(victim));
    EnvGuard guard("XTV_TEST_CRASH_ONCE_FILE", once);
    report = verifier.verify(*design_, options);
  }
  std::remove(once.c_str());

  // One crash, one failed lease — and the retry on another holder ran
  // clean, so the report is indistinguishable from a crash-free run.
  EXPECT_EQ(report.worker_crashes, 1u);
  EXPECT_EQ(report.victims_quarantined, 1u);
  EXPECT_EQ(report.victims_shard_crashed, 0u);
  expect_reports_equal_except(clean, report);
  expect_accounting_invariant(report);
}

TEST_F(ShardFixture, InjectedSigkillConcedesVictimAndJournalResumesCleanly) {
  // The acceptance scenario: --processes 4, a holder SIGKILLed on a known
  // victim twice (first lease + the retry elsewhere), so the victim is
  // conceded with a finite conservative bound; everything else is
  // bit-identical, and the merged journal resumes cleanly.
  const VerificationReport& clean = baseline_report();
  const std::size_t victim = clean.findings[2].net;

  ChipVerifier verifier(*extractor_, *chars_);
  VerifierOptions options = fast_options();
  options.processes = 4;
  options.journal_path = temp_path("xtv_shard_kill.journal");

  VerificationReport killed;
  {
    EnvGuard hook("XTV_TEST_SHARD_KILL_ON_START",
                  std::to_string(victim) + ":2");
    killed = verifier.verify(*design_, options);
  }
  EXPECT_EQ(killed.worker_crashes, 2u);
  EXPECT_EQ(killed.victims_quarantined, 1u);
  EXPECT_EQ(killed.victims_shard_crashed, 1u);
  const VictimFinding* f = find_net(killed, victim);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->status, FindingStatus::kShardCrashed);
  EXPECT_TRUE(std::isfinite(f->peak));
  EXPECT_LE(std::abs(f->peak), kTech.vdd * (1.0 + 1e-12));
  expect_reports_equal_except(clean, killed, static_cast<long long>(victim));

  // The merged journal is complete: a resume re-analyzes nothing and
  // reproduces the report (CPU times included — hexfloat round-trip).
  auto& fi = FaultInjector::instance();
  options.resume = true;
  options.processes = 0;
  fi.arm(FaultSite::kLanczosSweep, /*period=*/std::uint64_t{1} << 62);
  const VerificationReport resumed = verifier.verify(*design_, options);
  EXPECT_EQ(fi.hits(FaultSite::kLanczosSweep), 0u);
  fi.reset();
  expect_reports_equal_except(killed, resumed, -1);
  const VictimFinding* rf = find_net(resumed, victim);
  ASSERT_NE(rf, nullptr);
  EXPECT_EQ(rf->status, FindingStatus::kShardCrashed);
  EXPECT_EQ(rf->cpu_seconds, f->cpu_seconds);
  std::remove(options.journal_path.c_str());
}

// ---------------------------------------------------------------------------
// Resume after a killed coordinator.

TEST_F(ShardFixture, ResumeFoldsLeftoverShardJournalsIn) {
  const std::string path = temp_path("xtv_shard_fold.journal");
  ChipVerifier verifier(*extractor_, *chars_);
  VerifierOptions options = fast_options();
  options.processes = 2;
  options.journal_path = path;
  const VerificationReport full = verifier.verify(*design_, options);
  ASSERT_GT(full.victims_eligible, 8u);

  // Simulate a coordinator killed mid-run: the base journal holds the
  // first half of the records, a leftover shard journal holds the next
  // quarter, and the rest was never analyzed.
  std::vector<std::string> lines;
  {
    std::ifstream in(path, std::ios::binary);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 8u);  // header + records
  const std::string& header = lines[0];
  const std::size_t records = lines.size() - 1;
  const std::size_t base_keep = records / 2;
  const std::size_t shard_keep = records / 4;
  {
    std::ofstream base(path, std::ios::binary | std::ios::trunc);
    base << header << '\n';
    for (std::size_t i = 0; i < base_keep; ++i) base << lines[1 + i] << '\n';
  }
  {
    std::ofstream shard(journal_insurance_path(path),
                        std::ios::binary | std::ios::trunc);
    shard << header << '\n';
    for (std::size_t i = 0; i < shard_keep; ++i)
      shard << lines[1 + base_keep + i] << '\n';
  }

  options.resume = true;
  const VerificationReport resumed = verifier.verify(*design_, options);
  expect_reports_equal_except(full, resumed);
  // The leftover insurance file was consumed and retired.
  EXPECT_NE(::access(journal_insurance_path(path).c_str(), F_OK), 0);
  auto merged = ResultJournal::load(path);
  EXPECT_EQ(merged.records.size(), full.victims_eligible);

  // The folded journal is complete: an in-process resume replay
  // re-analyzes nothing.
  auto& fi = FaultInjector::instance();
  options.processes = 0;
  fi.arm(FaultSite::kLanczosSweep, /*period=*/std::uint64_t{1} << 62);
  const VerificationReport replay = verifier.verify(*design_, options);
  EXPECT_EQ(fi.hits(FaultSite::kLanczosSweep), 0u);
  fi.reset();
  expect_reports_equal_except(resumed, replay);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xtv
