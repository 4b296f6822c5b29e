// Lease-coordinator tests (DESIGN.md §14). Two layers:
//
//   LeaseTable — the pure failure-policy core, driven with a synthetic
//   clock: ownership, idempotent (unit, attempt) classification, settled
//   victims surviving reassignment, exponential backoff, the
//   distinct-holder / attempt-budget quarantine rules, short completions,
//   and the all-workers-dead drain.
//
//   End to end — a real xtv_worker serve loop forked as a child process,
//   a real RemoteExecutor dialing it over TCP: crash-free bit-identity
//   against the in-process run, mid-unit SIGKILL recovery, the
//   options-hash rejection gate, dropped-frame redelivery, the
//   stall -> lease expiry -> heal -> stale-frame-rejection cycle, and one
//   poison victim settled identically by the TCP fleet and by forked
//   `--processes` holders.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "chipgen/dsp_chip.h"
#include "core/journal.h"
#include "core/verifier.h"
#include "core/lease.h"
#include "serve/job.h"
#include "serve/remote.h"

namespace xtv {
namespace serve {
namespace {

std::vector<std::size_t> iota_work(std::size_t n) {
  std::vector<std::size_t> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = i * 3 + 1;  // non-trivial ids
  return w;
}

// ---------------------------------------------------------------------------
// LeaseTable
// ---------------------------------------------------------------------------

TEST(LeaseTable, SlicesWorkIntoContiguousStableUnits) {
  LeaseOptions opt;
  opt.unit_victims = 4;
  const auto work = iota_work(10);
  LeaseTable table(work, opt);
  EXPECT_FALSE(table.all_settled());

  LeaseAssignment a;
  ASSERT_TRUE(table.acquire("w1", 0.0, &a));
  EXPECT_EQ(a.unit, 0u);
  EXPECT_EQ(a.attempt, 1u);
  ASSERT_EQ(a.victims.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(a.victims[i], work[i]);

  // Last unit takes the remainder: three units cover all ten victims.
  LeaseAssignment b, c;
  ASSERT_TRUE(table.acquire("w1", 0.0, &b));
  ASSERT_TRUE(table.acquire("w2", 0.0, &c));
  EXPECT_EQ(b.unit, 1u);
  EXPECT_EQ(c.unit, 2u);
  EXPECT_EQ(c.victims.size(), 2u);
  EXPECT_EQ(a.victims.size() + b.victims.size() + c.victims.size(),
            work.size());
  // All three are out on lease: nothing left to lease.
  EXPECT_EQ(table.stats().leases, 3u);
  LeaseAssignment d;
  EXPECT_FALSE(table.acquire("w3", 0.0, &d));
}

TEST(LeaseTable, ResultsSettleExactlyOnce) {
  LeaseOptions opt;
  opt.unit_victims = 3;
  const auto work = iota_work(3);
  LeaseTable table(work, opt);
  LeaseAssignment a;
  ASSERT_TRUE(table.acquire("w1", 0.0, &a));

  EXPECT_EQ(table.result(a.unit, a.attempt, work[0]), LeaseVerdict::kAccepted);
  EXPECT_EQ(table.result(a.unit, a.attempt, work[0]),
            LeaseVerdict::kDuplicate);
  EXPECT_EQ(table.stats().duplicate_results, 1u);
  // A victim that is not a member of the unit is unclassifiable.
  EXPECT_EQ(table.result(a.unit, a.attempt, 999), LeaseVerdict::kUnknown);
  // Out-of-range unit id likewise.
  EXPECT_EQ(table.result(57, 1, work[1]), LeaseVerdict::kUnknown);

  EXPECT_EQ(table.result(a.unit, a.attempt, work[1]), LeaseVerdict::kAccepted);
  EXPECT_EQ(table.result(a.unit, a.attempt, work[2]), LeaseVerdict::kAccepted);
  EXPECT_EQ(table.complete(a.unit, a.attempt, 0.0), LeaseVerdict::kAccepted);
  EXPECT_TRUE(table.all_settled());
  // A completion echo for a finished unit is stale, not a second success.
  EXPECT_EQ(table.complete(a.unit, a.attempt, 0.0), LeaseVerdict::kStale);
}

TEST(LeaseTable, StaleAttemptFramesAreRejected) {
  LeaseOptions opt;
  opt.unit_victims = 4;
  opt.backoff_base_ms = 100.0;
  const auto work = iota_work(4);
  LeaseTable table(work, opt);

  LeaseAssignment first;
  ASSERT_TRUE(table.acquire("w1", 0.0, &first));
  table.fail_holder("w1", 1000.0);

  // Re-lease after backoff: fresh attempt number.
  LeaseAssignment second;
  ASSERT_TRUE(table.acquire("w2", 1200.0, &second));
  EXPECT_EQ(second.attempt, 2u);
  EXPECT_EQ(table.stats().reassignments, 1u);

  // The partitioned-then-healed first worker flushes its stale work.
  EXPECT_EQ(table.result(first.unit, first.attempt, work[0]),
            LeaseVerdict::kStale);
  EXPECT_EQ(table.complete(first.unit, first.attempt, 1300.0),
            LeaseVerdict::kStale);
  EXPECT_GE(table.stats().stale_frames, 2u);
  // The live lease still works.
  EXPECT_EQ(table.result(second.unit, second.attempt, work[0]),
            LeaseVerdict::kAccepted);
}

TEST(LeaseTable, SettledVictimsSurviveReassignment) {
  LeaseOptions opt;
  opt.unit_victims = 4;
  opt.backoff_base_ms = 50.0;
  const auto work = iota_work(4);
  LeaseTable table(work, opt);

  LeaseAssignment a;
  ASSERT_TRUE(table.acquire("w1", 0.0, &a));
  EXPECT_EQ(table.result(a.unit, a.attempt, work[1]), LeaseVerdict::kAccepted);
  EXPECT_EQ(table.result(a.unit, a.attempt, work[3]), LeaseVerdict::kAccepted);
  table.fail_holder("w1", 100.0);
  // The failure charges only the victims it left unsettled.
  EXPECT_EQ(table.stats().victims_charged, 2u);

  // The re-lease carries only the unsettled remainder, in stable order.
  LeaseAssignment b;
  ASSERT_TRUE(table.acquire("w2", 1000.0, &b));
  ASSERT_EQ(b.victims.size(), 2u);
  EXPECT_EQ(b.victims[0], work[0]);
  EXPECT_EQ(b.victims[1], work[2]);
  // ...and the two settled victims stay settled under the new lease.
  EXPECT_EQ(table.result(b.unit, b.attempt, work[1]),
            LeaseVerdict::kDuplicate);
  EXPECT_EQ(table.result(b.unit, b.attempt, work[3]),
            LeaseVerdict::kDuplicate);
}

TEST(LeaseTable, ExponentialBackoffDelaysRequeue) {
  LeaseOptions opt;
  opt.unit_victims = 2;
  opt.max_unit_attempts = 10;
  opt.backoff_base_ms = 100.0;
  opt.backoff_max_ms = 250.0;
  const auto work = iota_work(2);
  LeaseTable table(work, opt);

  LeaseAssignment a;
  ASSERT_TRUE(table.acquire("w1", 0.0, &a));
  table.fail_holder("w1", 1000.0);
  // First failure: ready again at 1000 + 100, and not a moment before.
  EXPECT_FALSE(table.acquire("w1", 1050.0, &a));
  EXPECT_FALSE(table.acquire("w1", 1099.0, &a));
  ASSERT_TRUE(table.acquire("w1", 1100.0, &a));
  table.fail_holder("w1", 2000.0);
  // Second failure doubles the delay.
  EXPECT_FALSE(table.acquire("w1", 2150.0, &a));
  ASSERT_TRUE(table.acquire("w1", 2200.0, &a));
  table.fail_holder("w1", 3000.0);
  // Third failure would be 400 ms but the cap holds it at 250.
  EXPECT_FALSE(table.acquire("w1", 3249.0, &a));
  ASSERT_TRUE(table.acquire("w1", 3250.0, &a));
}

TEST(LeaseTable, AttemptBudgetQuarantines) {
  LeaseOptions opt;
  opt.unit_victims = 2;
  opt.max_unit_attempts = 2;
  opt.backoff_base_ms = 10.0;
  const auto work = iota_work(2);
  LeaseTable table(work, opt);

  // One holder failing twice: never a second distinct holder, so only the
  // attempt budget can quarantine.
  LeaseAssignment a;
  ASSERT_TRUE(table.acquire("w1", 0.0, &a));
  table.fail_holder("w1", 0.0);
  EXPECT_EQ(table.stats().units_quarantined, 0u);
  ASSERT_TRUE(table.acquire("w1", 100.0, &a));
  EXPECT_EQ(a.attempt, 2u);
  table.fail_holder("w1", 100.0);  // budget burned -> quarantine

  EXPECT_EQ(table.stats().units_quarantined, 1u);
  LeaseAssignment b;
  EXPECT_FALSE(table.acquire("w1", 10000.0, &b));
  const auto q = table.take_quarantined();
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q[0], work[0]);
  EXPECT_EQ(q[1], work[1]);
  EXPECT_TRUE(table.all_settled());
  // take_quarantined is a one-shot handover.
  EXPECT_TRUE(table.take_quarantined().empty());
}

TEST(LeaseTable, TwoDistinctHoldersQuarantine) {
  LeaseOptions opt;
  opt.unit_victims = 2;
  opt.max_unit_attempts = 99;  // isolate the distinct-holder rule
  opt.backoff_base_ms = 10.0;
  const auto work = iota_work(2);
  LeaseTable table(work, opt);

  LeaseAssignment a;
  ASSERT_TRUE(table.acquire("hostA", 0.0, &a));
  table.fail_holder("hostA", 0.0);
  ASSERT_TRUE(table.acquire("hostA", 100.0, &a));
  table.fail_holder("hostA", 100.0);  // same host again: still one holder
  EXPECT_EQ(table.stats().units_quarantined, 0u);
  ASSERT_TRUE(table.acquire("hostB", 200.0, &a));
  table.fail_holder("hostB", 200.0);  // second distinct host -> poison unit
  EXPECT_EQ(table.stats().units_quarantined, 1u);
  // Three failures, but the unit's two victims were charged once.
  EXPECT_EQ(table.stats().victims_charged, 2u);
}

TEST(LeaseTable, ShortCompletionRequeuesWithoutCharge) {
  LeaseOptions opt;
  opt.unit_victims = 3;
  opt.backoff_base_ms = 500.0;
  const auto work = iota_work(3);
  LeaseTable table(work, opt);

  LeaseAssignment a;
  ASSERT_TRUE(table.acquire("w1", 0.0, &a));
  EXPECT_EQ(table.result(a.unit, a.attempt, work[0]), LeaseVerdict::kAccepted);
  // Done arrives but two result frames were dropped in transit.
  EXPECT_EQ(table.complete(a.unit, a.attempt, 100.0), LeaseVerdict::kAccepted);
  EXPECT_EQ(table.stats().short_completions, 1u);
  EXPECT_EQ(table.stats().failures, 0u);  // the holder is not blamed

  // Requeued immediately (no backoff), remainder only.
  LeaseAssignment b;
  ASSERT_TRUE(table.acquire("w1", 100.0, &b));
  EXPECT_EQ(b.attempt, 2u);
  ASSERT_EQ(b.victims.size(), 2u);
  EXPECT_EQ(b.victims[0], work[1]);
  EXPECT_EQ(b.victims[1], work[2]);
}

TEST(LeaseTable, DrainRemainingSettlesEverythingSorted) {
  LeaseOptions opt;
  opt.unit_victims = 2;
  const auto work = iota_work(6);
  LeaseTable table(work, opt);

  LeaseAssignment a;
  ASSERT_TRUE(table.acquire("w1", 0.0, &a));
  EXPECT_EQ(table.result(a.unit, a.attempt, work[0]), LeaseVerdict::kAccepted);

  const auto rest = table.drain_remaining();
  ASSERT_EQ(rest.size(), 5u);
  for (std::size_t i = 1; i < rest.size(); ++i)
    EXPECT_LT(rest[i - 1], rest[i]);
  EXPECT_TRUE(table.all_settled());
  // Late frames from the abandoned lease classify stale, not accepted.
  EXPECT_EQ(table.result(a.unit, a.attempt, work[1]), LeaseVerdict::kStale);
  EXPECT_EQ(table.complete(a.unit, a.attempt, 1.0), LeaseVerdict::kStale);
}

// ---------------------------------------------------------------------------
// End to end: real worker process, real TCP, real verifier
// ---------------------------------------------------------------------------

constexpr std::size_t kNets = 60;

/// Scoped environment variable (the worker test hooks are env-driven and
/// inherited across fork).
struct EnvGuard {
  std::string name;
  EnvGuard(const char* n, const std::string& v) : name(n) {
    ::setenv(n, v.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(name.c_str()); }
};

class RemoteFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new CellLibrary(Technology::default_250nm());
    // Default characterization options: the worker rebuilds with defaults
    // too, and bit-identity across the wire rests on both sides deriving
    // the same models.
    chars_ = new CharacterizedLibrary(*lib_);
    extractor_ = new Extractor(Technology::default_250nm());
    DspChipOptions chip_opt;
    chip_opt.net_count = kNets;
    design_ = new ChipDesign(generate_dsp_chip(*lib_, chip_opt));

    spec_ = new JobSpec();
    spec_->design_nets = kNets;
    baseline_ = new VerificationReport(
        ChipVerifier(*extractor_, *chars_).verify(*design_,
                                                  spec_->to_options()));
    // The baseline run characterized every cell the design uses; persist
    // the models so workers can skip the (deterministic) recomputation.
    cache_path_ = ::testing::TempDir() + "xtv_remote_cells_" +
                  std::to_string(::getpid()) + ".cache";
    chars_->save(cache_path_);
  }

  static void TearDownTestSuite() {
    std::remove(cache_path_.c_str());
    delete baseline_;
    delete spec_;
    delete design_;
    delete extractor_;
    delete chars_;
    delete lib_;
  }

  /// Forks an xtv_worker serving one coordinator; returns its pid and
  /// endpoint (discovered through the atomically published file). A warm
  /// `cell_cache` makes the worker ready milliseconds after setup; an
  /// empty one costs it a full characterization (seconds) — tests that
  /// need a deterministic assignment order exploit the gap.
  static pid_t spawn_worker(const std::string& tag, std::string* endpoint,
                            const std::string& cell_cache) {
    const std::string ep_file = ::testing::TempDir() + "xtv_remote_" + tag +
                                "_" + std::to_string(::getpid()) + ".ep";
    std::remove(ep_file.c_str());
    const pid_t pid = ::fork();
    if (pid == 0) {
      WorkerOptions wo;
      wo.listen = "127.0.0.1:0";
      wo.endpoint_file = ep_file;
      wo.cell_cache = cell_cache;
      wo.max_coordinators = 1;
      ::_exit(run_worker(wo));
    }
    // The endpoint file appears atomically once the listener is bound.
    for (int i = 0; i < 200; ++i) {
      std::ifstream in(ep_file);
      if (in >> *endpoint && !endpoint->empty()) break;
      ::usleep(50 * 1000);
    }
    std::remove(ep_file.c_str());
    EXPECT_FALSE(endpoint->empty()) << "worker never published an endpoint";
    return pid;
  }

  static void reap(pid_t pid) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }

  /// Runs the full verifier with a RemoteExecutor over `endpoints` and
  /// asserts the report's findings are bit-identical to the in-process
  /// baseline (the acceptance bar for a crash-free or fully recovered
  /// distributed run).
  static VerificationReport run_remote(const std::vector<std::string>& eps,
                                       CoordinatorStats* stats_out = nullptr,
                                       double heartbeat_ms = 100.0,
                                       std::size_t unit_victims = 8,
                                       double setup_timeout_ms = 60000.0) {
    VerifierOptions vo = spec_->to_options();
    RemoteExecOptions ro;
    ro.workers = eps;
    ro.heartbeat_ms = heartbeat_ms;
    ro.unit_victims = unit_victims;
    ro.setup_timeout_ms = setup_timeout_ms;
    ro.spec_text = spec_->to_text();
    RemoteExecutor exec(ro);
    vo.remote_backend = &exec;
    ChipVerifier verifier(*extractor_, *chars_);
    const VerificationReport report = verifier.verify(*design_, vo);
    if (stats_out) *stats_out = exec.remote_stats();
    return report;
  }

  static void expect_bit_identical(const VerificationReport& report) {
    ASSERT_EQ(report.findings.size(), baseline_->findings.size());
    for (std::size_t i = 0; i < report.findings.size(); ++i) {
      const VictimFinding& a = baseline_->findings[i];
      const VictimFinding& b = report.findings[i];
      EXPECT_EQ(a.net, b.net);
      EXPECT_EQ(a.peak, b.peak) << "net " << a.net;
      EXPECT_EQ(a.peak_fraction, b.peak_fraction) << "net " << a.net;
      EXPECT_EQ(a.violation, b.violation) << "net " << a.net;
      EXPECT_EQ(static_cast<int>(a.status), static_cast<int>(b.status))
          << "net " << a.net;
    }
  }

  static CellLibrary* lib_;
  static CharacterizedLibrary* chars_;
  static Extractor* extractor_;
  static ChipDesign* design_;
  static JobSpec* spec_;
  static VerificationReport* baseline_;
  static std::string cache_path_;
};

CellLibrary* RemoteFixture::lib_ = nullptr;
CharacterizedLibrary* RemoteFixture::chars_ = nullptr;
Extractor* RemoteFixture::extractor_ = nullptr;
ChipDesign* RemoteFixture::design_ = nullptr;
JobSpec* RemoteFixture::spec_ = nullptr;
VerificationReport* RemoteFixture::baseline_ = nullptr;
std::string RemoteFixture::cache_path_;

TEST_F(RemoteFixture, CrashFreeRunIsBitIdentical) {
  std::string ep;
  const pid_t pid = spawn_worker("clean", &ep, cache_path_);
  CoordinatorStats rs;
  const VerificationReport report = run_remote({ep}, &rs);
  reap(pid);
  EXPECT_EQ(rs.workers_connected, 1u);
  EXPECT_EQ(rs.lease.stale_frames, 0u);
  EXPECT_EQ(rs.lease.duplicate_results, 0u);
  EXPECT_EQ(rs.victims_local, 0u);
  expect_bit_identical(report);
}

TEST_F(RemoteFixture, WorkerCrashMidUnitRecoversOnSurvivor) {
  std::string ep_bad, ep_good;
  pid_t pid_bad;
  {
    // The crash hook is inherited across fork; scope it to the bad worker.
    // Warm cache: the doomed worker is ready long before the cold-cache
    // survivor, so it deterministically draws unit 0 and dies on it.
    EnvGuard crash("XTV_TEST_WORKER_CRASH_UNIT", "0");
    pid_bad = spawn_worker("crash", &ep_bad, cache_path_);
  }
  const pid_t pid_good = spawn_worker("survivor", &ep_good, "");

  // The survivor's cold characterization must finish inside the setup
  // deadline; under ASan it can take minutes, so allow ten.
  CoordinatorStats rs;
  const VerificationReport report =
      run_remote({ep_bad, ep_good}, &rs, 100.0, 8, 600000.0);
  reap(pid_bad);
  reap(pid_good);

  EXPECT_EQ(rs.workers_connected, 2u);
  EXPECT_EQ(rs.workers_lost, 1u);
  EXPECT_GE(rs.lease.reassignments, 1u);
  EXPECT_EQ(rs.victims_local, 0u);  // the survivor absorbed everything
  EXPECT_EQ(report.victims_shard_crashed, 0u);  // one host death != poison
  // The crashed unit's lease failed once: all of run_remote's 8 victims.
  EXPECT_EQ(report.victims_quarantined, 8u);
  expect_bit_identical(report);
}

TEST_F(RemoteFixture, AllWorkersLostFallsBackLocally) {
  std::string ep;
  pid_t pid;
  {
    EnvGuard crash("XTV_TEST_WORKER_CRASH_UNIT", "0");
    pid = spawn_worker("doomed", &ep, cache_path_);
  }
  CoordinatorStats rs;
  const VerificationReport report = run_remote({ep}, &rs);
  reap(pid);

  EXPECT_EQ(rs.workers_lost, 1u);
  EXPECT_GE(rs.victims_local, 1u);  // the drain picked up the remainder
  // The only worker died on its first unit, so (nearly) everything ran
  // through the local fallback — and the result is still bit-identical.
  expect_bit_identical(report);
}

TEST_F(RemoteFixture, OptionsHashMismatchIsTypedRejection) {
  std::string ep;
  const pid_t pid = spawn_worker("reject", &ep, cache_path_);

  // The worker derives its hash from a spec with another threshold, so
  // it cannot match the hash verify() computes from vo.
  VerifierOptions vo = spec_->to_options();
  JobSpec other = *spec_;
  other.options.glitch_threshold = 0.2;
  ASSERT_NE(other.options_hash(), options_result_hash(vo));
  RemoteExecOptions ro;
  ro.workers = {ep};
  ro.heartbeat_ms = 100.0;
  ro.spec_text = other.to_text();
  RemoteExecutor exec(ro);
  vo.remote_backend = &exec;
  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport report = verifier.verify(*design_, vo);
  reap(pid);

  // The worker refuses (its spec derives another hash), no lease is ever
  // granted, and the job still completes locally.
  EXPECT_EQ(exec.remote_stats().workers_rejected, 1u);
  EXPECT_EQ(exec.remote_stats().workers_connected, 0u);
  EXPECT_GE(exec.remote_stats().victims_local, 1u);
  EXPECT_EQ(exec.remote_stats().lease.leases, 0u);
  expect_bit_identical(report);
}

TEST_F(RemoteFixture, DroppedResultFramesAreRedelivered) {
  std::string ep;
  pid_t pid;
  {
    EnvGuard drop("XTV_TEST_DROP_FRAME_EVERY", "3");
    pid = spawn_worker("lossy", &ep, cache_path_);
  }
  CoordinatorStats rs;
  const VerificationReport report = run_remote({ep}, &rs);
  reap(pid);

  // Every dropped frame shows up as a short completion whose remainder is
  // re-leased until delivered — no failure charged, nothing quarantined.
  EXPECT_GE(rs.lease.short_completions, 1u);
  EXPECT_EQ(rs.lease.failures, 0u);
  EXPECT_EQ(report.victims_quarantined, 0u);
  expect_bit_identical(report);
}

TEST_F(RemoteFixture, StalledWorkerLosesLeaseThenHealsStale) {
  std::string ep;
  pid_t pid;
  {
    // Warm cache: the stall window must start promptly after setup, not
    // after seconds of characterization.
    EnvGuard stall("XTV_TEST_WORKER_STALL_MS", "1500");
    pid = spawn_worker("stall", &ep, cache_path_);
  }
  CoordinatorStats rs;
  // 100 ms heartbeat: the 1.5 s stall blows through the 1 s (10x) expiry
  // window but wakes inside the probation window, so the worker is
  // re-admitted, its first-attempt results are all classified stale, and
  // the unit is re-leased to it for a prompt second pass.
  const VerificationReport report =
      run_remote({ep}, &rs, /*heartbeat_ms=*/100.0, /*unit_victims=*/64);
  reap(pid);

  EXPECT_GE(rs.lease_expiries, 1u);
  EXPECT_GE(rs.lease.stale_frames, 1u);
  EXPECT_GE(rs.lease.reassignments, 1u);
  EXPECT_EQ(rs.lease.duplicate_results, 0u);
  expect_bit_identical(report);
}

TEST_F(RemoteFixture, PoisonVictimConcedesIdenticallyOnBothBackends) {
  // One victim that kills every holder reaching it. Forked --processes
  // holders and a two-worker TCP fleet at one victim per unit run the same
  // policy: retry the victim elsewhere, then concede it to its
  // conservative bound — with the same numbers and the same reason — and
  // leave every other finding untouched.
  const std::size_t poison = baseline_->findings[1].net;
  EnvGuard net("XTV_TEST_CRASH_VICTIM", std::to_string(poison));
  EnvGuard mode("XTV_TEST_CRASH_MODE", "segv");

  VerifierOptions vo = spec_->to_options();
  vo.processes = 2;
  const VerificationReport forked =
      ChipVerifier(*extractor_, *chars_).verify(*design_, vo);

  std::string ep_a, ep_b;
  const pid_t pid_a = spawn_worker("poison_a", &ep_a, cache_path_);
  const pid_t pid_b = spawn_worker("poison_b", &ep_b, cache_path_);
  const VerificationReport remote = run_remote(
      {ep_a, ep_b}, nullptr, /*heartbeat_ms=*/100.0, /*unit_victims=*/1);
  reap(pid_a);
  reap(pid_b);

  const VictimFinding* conceded[2] = {nullptr, nullptr};
  const VerificationReport* runs[2] = {&forked, &remote};
  for (int r = 0; r < 2; ++r) {
    SCOPED_TRACE(r == 0 ? "forked holders" : "tcp workers");
    const VerificationReport& report = *runs[r];
    EXPECT_EQ(report.victims_shard_crashed, 1u);
    ASSERT_EQ(report.findings.size(), baseline_->findings.size());
    for (std::size_t i = 0; i < report.findings.size(); ++i) {
      const VictimFinding& want = baseline_->findings[i];
      const VictimFinding& got = report.findings[i];
      EXPECT_EQ(got.net, want.net);
      if (got.net == poison) {
        EXPECT_EQ(got.status, FindingStatus::kShardCrashed);
        EXPECT_EQ(got.error_code, StatusCode::kWorkerCrashed);
        conceded[r] = &got;
        continue;
      }
      EXPECT_EQ(got.peak, want.peak) << "net " << got.net;
      EXPECT_EQ(got.peak_fraction, want.peak_fraction) << "net " << got.net;
      EXPECT_EQ(got.violation, want.violation) << "net " << got.net;
      EXPECT_EQ(got.status, want.status) << "net " << got.net;
    }
  }
  ASSERT_NE(conceded[0], nullptr);
  ASSERT_NE(conceded[1], nullptr);
  EXPECT_EQ(conceded[0]->peak, conceded[1]->peak);
  EXPECT_EQ(conceded[0]->peak_fraction, conceded[1]->peak_fraction);
  EXPECT_EQ(conceded[0]->violation, conceded[1]->violation);
  EXPECT_EQ(conceded[0]->error, conceded[1]->error);
}

}  // namespace
}  // namespace serve
}  // namespace xtv
