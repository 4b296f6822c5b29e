// Verification service tests (src/serve, DESIGN.md §13).
//
// Unit layer: job specs round-trip bit-exactly (their hash is the job
// identity), malformed specs are rejected with a reason, and the
// admission queue / backoff schedule behave deterministically without
// sleeping. Integration layer: a real daemon is forked per test and
// driven over its Unix-domain socket — a served job must match a direct
// in-process verify bit-for-bit, resubmits must replay exactly once,
// and the robustness envelope (queue-full pushback, crash retry,
// wedged-runner reaping, retry-exhaustion concession, SIGTERM drain,
// daemon SIGKILL + restart recovery, client disconnect) must hold.
#include <gtest/gtest.h>

#include <dirent.h>
#include <netdb.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "chipgen/dsp_chip.h"
#include "core/journal.h"
#include "core/option_table.h"
#include "core/pruning.h"
#include "core/verifier.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/governor.h"
#include "serve/job.h"
#include "serve/queue.h"
#include "wire_negatives.h"

namespace xtv {
namespace {

using serve::AdmissionQueue;
using serve::BackoffPolicy;
using serve::JobSpec;
using serve::JobState;
using serve::LaunchCandidate;
using serve::ResourceGovernor;

// ---------------------------------------------------------------------------
// Unit: spec canon and identity.

TEST(JobSpec, RoundTripsBitExactlyThroughText) {
  JobSpec spec;
  VerifierOptions& o = spec.options;
  o.glitch_threshold = 0.0625;
  o.latch_inputs_only = true;
  o.analyze_delay_change = true;
  o.use_noise_screen = true;
  o.em_rms_limit = 1.5e-3;
  o.glitch.align_aggressors = false;
  o.glitch.tstop = 3.1e-9;  // not exactly representable
  o.glitch.mor.max_order = 12;
  o.certify = true;
  o.cert_rel_tol = 0.034;
  o.cert_freqs = 7;
  o.max_mor_order = 48;
  o.mor_order_step = 2;
  o.audit_fraction = 0.125;
  o.audit_seed = 0xfeedfacecafeull;
  o.model_cache_mb = 8.5;
  o.canonical_cache = true;
  o.canonical_cache_tol = 1e-3;
  o.cluster_deadline_ms = 250.0;
  o.cluster_mem_mb = 0.75;
  spec.design_nets = 300;
  spec.design_rows = 4;
  spec.design_seed = 77;
  spec.mem_mb = 96.0;
  spec.processes = 3;
  spec.heartbeat_ms = 123.456;
  spec.deadline_ms = 2500.0;
  spec.retries = 7;
  // Every row with a spec key is off its default here, so a new spec
  // row fails this test until it is set above.
  const JobSpec defaults;
  for (const OptionRow& row : option_rows()) {
    if (!row.key) continue;
    SCOPED_TRACE(row.key);
    EXPECT_NE(format_option(row, o), format_option(row, defaults.options));
  }

  JobSpec back;
  std::string err;
  ASSERT_TRUE(JobSpec::parse(spec.to_text(), &back, &err)) << err;
  EXPECT_EQ(back.to_text(), spec.to_text());
  EXPECT_EQ(back.key(), spec.key());
  EXPECT_EQ(options_result_hash(back.to_options()),
            options_result_hash(spec.to_options()));
  // Bitwise, not approximate: the key hashes double bit patterns.
  EXPECT_EQ(back.options.glitch.tstop, spec.options.glitch.tstop);
}

TEST(JobSpec, EmptySpecSharesTheChipAuditDefaultKey) {
  // chip_audit parity: a bare submit and a bare chip_audit run must land
  // on one options hash (and therefore one interchangeable journal).
  JobSpec spec;
  std::string err;
  ASSERT_TRUE(JobSpec::parse("", &spec, &err)) << err;
  EXPECT_EQ(spec.key(), options_result_hash(spec.to_options()));
  EXPECT_EQ(spec.options.glitch_threshold, 0.10);
  EXPECT_TRUE(spec.options.glitch.align_aggressors);
}

TEST(JobSpec, SchedulingKnobsNeverChangeTheKey) {
  JobSpec a, b;
  b.processes = 7;
  b.heartbeat_ms = 10.0;
  b.deadline_ms = 1.0;
  b.retries = 0;
  EXPECT_EQ(a.key(), b.key());
  // ...but a result-affecting knob does.
  b.options.glitch_threshold = 0.2;
  EXPECT_NE(a.key(), b.key());
}

TEST(JobSpec, RejectsMalformedAndOutOfRangeSpecs) {
  const char* bad[] = {
      "threshold=0",        "threshold=1.5",   "threshold=abc",
      "tstop=0",            "tstop=-1e-9",     "heartbeat_ms=0",
      "audit_fraction=1.5", "audit_fraction=-0.1",
      "cert_tol=0",         "cert_freqs=0",    "max_mor_order=0",
      "latch_only=yes",     "retries=2.5",     "frobnicate=1",
      "threshold",          "=1",              "restarts=2",
      // Accepted before every front end read one table through one
      // strict parser: nan/inf, values past chip_audit's ranges, and
      // signs on unsigned values (which wrapped to 2^64-1).
      "threshold=nan",      "cert_tol=inf",    "cert_tol=5",
      "cache_mb=inf",       "tstop=inf",       "em_limit=nan",
      "cluster_deadline_ms=nan", "canonical_tol=nan", "audit_fraction=nan",
      "mor_order=-1",       "cert_freqs=-1",   "max_mor_order=+3",
      "audit_seed=-1",      "processes=-1",    "heartbeat_ms=inf",
      "deadline_ms=nan",    "nets=-1",         "mem_mb=nan",
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    JobSpec spec;
    std::string err;
    EXPECT_FALSE(JobSpec::parse(text, &spec, &err));
    EXPECT_FALSE(err.empty());
  }
  // mor_order=0 is NOT an error: 0 means "automatic order selection".
  // Negative deadline_ms/retries mean "daemon default" (to_text writes
  // -1 for both), so they parse too.
  for (const char* text : {"mor_order=0", "deadline_ms=-1", "retries=-1"}) {
    SCOPED_TRACE(text);
    JobSpec spec;
    std::string err;
    EXPECT_TRUE(JobSpec::parse(text, &spec, &err)) << err;
  }
}

// ---------------------------------------------------------------------------
// Unit: the option table (core/option_table.h).

TEST(OptionTable, ResultHashBitsArePinned) {
  // Literals captured from the hand-written options_result_hash the table
  // replaced. A journal or spec file written by any earlier build must
  // keep its hash: never update these to make the test pass.
  EXPECT_EQ(options_result_hash(VerifierOptions{}), 0x2a8a3c55899cd121ull);
  EXPECT_EQ(options_result_hash(JobSpec{}.to_options()),
            0x266478327dd4d311ull);
  EXPECT_EQ(option_rows().size(), 35u);

  struct Pin {
    const char* field;
    void (*set)(VerifierOptions&);
    std::uint64_t hash;
  };
  // One row at a time, off its default. The 35th row, the constant that
  // stands in for the deleted max_victims, has no field to set.
  const Pin pins[] = {
      {"prune.ratio_threshold",
       [](VerifierOptions& o) { o.prune.ratio_threshold = 0.07; },
       0x627f52d08d7c89fdull},
      {"prune.abs_floor", [](VerifierOptions& o) { o.prune.abs_floor = 1e-15; },
       0x53af2b3391447a51ull},
      {"prune.max_aggressors",
       [](VerifierOptions& o) { o.prune.max_aggressors = 8; },
       0xb0f3192573e05d3dull},
      {"prune.use_driver_strength",
       [](VerifierOptions& o) { o.prune.use_driver_strength = false; },
       0x7b94caaf44759b54ull},
      {"glitch.driver_model",
       [](VerifierOptions& o) {
         o.glitch.driver_model = DriverModelKind::kFixedResistor;
       },
       0x10d48537db607dc2ull},
      {"glitch.fixed_resistance",
       [](VerifierOptions& o) { o.glitch.fixed_resistance = 2e3; },
       0xef7d129dcc132dd1ull},
      {"glitch.tstop", [](VerifierOptions& o) { o.glitch.tstop = 3.1e-9; },
       0x6a031579a6ddb1e3ull},
      {"glitch.dt", [](VerifierOptions& o) { o.glitch.dt = 1e-12; },
       0x54235d9e5b50bbd1ull},
      {"glitch.mor.max_order",
       [](VerifierOptions& o) { o.glitch.mor.max_order = 12; },
       0xa67a164480f9148dull},
      {"glitch.mor.deflation_tol",
       [](VerifierOptions& o) { o.glitch.mor.deflation_tol = 1e-9; },
       0x3d5655b970e25a30ull},
      {"glitch.align_aggressors",
       [](VerifierOptions& o) { o.glitch.align_aggressors = false; },
       0xcaa8e6b960eb7108ull},
      {"glitch.spice_exploit_linearity",
       [](VerifierOptions& o) { o.glitch.spice_exploit_linearity = false; },
       0xa97f4b73349428a8ull},
      {"glitch.default_switch_time",
       [](VerifierOptions& o) { o.glitch.default_switch_time = 0.7e-9; },
       0xc1c1f1b3b5c475bfull},
      {"glitch_threshold", [](VerifierOptions& o) { o.glitch_threshold = 0.2; },
       0x6b0cf92f89bb46b1ull},
      {"latch_inputs_only",
       [](VerifierOptions& o) { o.latch_inputs_only = true; },
       0xdeaf7efd710d55a0ull},
      {"analyze_delay_change",
       [](VerifierOptions& o) { o.analyze_delay_change = true; },
       0xc64bd49ea6bba460ull},
      {"use_noise_screen", [](VerifierOptions& o) { o.use_noise_screen = true; },
       0x2025a56302bf36c0ull},
      {"em_rms_limit", [](VerifierOptions& o) { o.em_rms_limit = 1e-3; },
       0xfcc8f4e2774e9aefull},
      {"cluster_deadline_ms",
       [](VerifierOptions& o) { o.cluster_deadline_ms = 250.0; },
       0xa559a96df7aaf5eaull},
      {"model_cache_mb", [](VerifierOptions& o) { o.model_cache_mb = 8.0; },
       0x920f96ff43601381ull},
      {"cluster_mem_mb", [](VerifierOptions& o) { o.cluster_mem_mb = 0.5; },
       0xf1cf74b2c3ea3a70ull},
      {"global_mem_soft_mb",
       [](VerifierOptions& o) { o.global_mem_soft_mb = 2048.0; },
       0xa9a6cf5172cc5081ull},
      {"certify", [](VerifierOptions& o) { o.certify = true; },
       0xce38225409242b00ull},
      {"cert_rel_tol", [](VerifierOptions& o) { o.cert_rel_tol = 0.05; },
       0x2ea3c6ad8bd94776ull},
      {"cert_freqs", [](VerifierOptions& o) { o.cert_freqs = 7; },
       0xc3eaf50ca0562297ull},
      {"max_mor_order", [](VerifierOptions& o) { o.max_mor_order = 48; },
       0x60c07d438eb03391ull},
      {"mor_order_step", [](VerifierOptions& o) { o.mor_order_step = 2; },
       0xc2ea70e26e01f933ull},
      {"audit_fraction", [](VerifierOptions& o) { o.audit_fraction = 0.2; },
       0x28223d5d145642e0ull},
      {"audit_seed", [](VerifierOptions& o) { o.audit_seed = 9; },
       0xbc5e1069231615c2ull},
      {"audit_peak_tol_frac",
       [](VerifierOptions& o) { o.audit_peak_tol_frac = 0.05; },
       0xacfac2337c32ab62ull},
      {"audit_time_tol", [](VerifierOptions& o) { o.audit_time_tol = 1e-10; },
       0x5bb9976a5d7f1af1ull},
      {"canonical_cache", [](VerifierOptions& o) { o.canonical_cache = true; },
       0x8a1317656df413e0ull},
      {"canonical_cache_tol",
       [](VerifierOptions& o) { o.canonical_cache_tol = 1e-3; },
       0xbf79011bc1d8fb07ull},
      {"glitch.lte_vtol", [](VerifierOptions& o) { o.glitch.lte_vtol = 2e-3; },
       0x2b2d3c558a273271ull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.field);
    VerifierOptions o;
    pin.set(o);
    EXPECT_EQ(options_result_hash(o), pin.hash);
  }

  // Scheduling knobs have no row and never move the hash.
  VerifierOptions sched;
  sched.threads = 4;
  sched.processes = 3;
  sched.shard_heartbeat_ms = 10.0;
  sched.journal_path = "x.journal";
  sched.resume = true;
  EXPECT_EQ(options_result_hash(sched), 0x2a8a3c55899cd121ull);
}

TEST(OptionTable, FlagAndSpecKeyAcceptTheSameValues) {
  // chip_audit reads a flag's value through option_by_flag; a spec
  // through JobSpec::parse. Both must take and refuse the same values,
  // and land on the same options hash.
  const char* probes[] = {"0",    "1",     "2",      "5",    "0.5",
                          "1e-3", "0x1p-3", "-1",    "+3",   "1e9",
                          "1e10", "1e13",  "nan",    "inf",  "-inf",
                          "abc",  "",      "1e-400", " 1",   "7x"};
  std::size_t rows_with_both = 0;
  for (const OptionRow& row : option_rows()) {
    if (!row.key || !row.flag) continue;
    ++rows_with_both;
    const OptionRow* by_flag = option_by_flag(row.flag);
    ASSERT_NE(by_flag, nullptr);
    for (const char* v : probes) {
      SCOPED_TRACE(std::string(row.key) + "=" + v);
      VerifierOptions cli = audit_default_options();
      const bool cli_ok = set_option(*by_flag, v, &cli);
      JobSpec spec;
      std::string err;
      const bool spec_ok =
          JobSpec::parse(std::string(row.key) + "=" + v, &spec, &err);
      EXPECT_EQ(cli_ok, spec_ok) << err;
      if (cli_ok && spec_ok) {
        EXPECT_EQ(options_result_hash(cli), spec.options_hash());
      }
    }
  }
  EXPECT_EQ(rows_with_both, 11u);
}

TEST(JobSpec, KeyHexRoundTripsAndRejectsGarbage) {
  const std::uint64_t key = 0xc07ebd46bf789f57ull;
  std::uint64_t back = 0;
  ASSERT_TRUE(serve::parse_job_key(serve::job_key_hex(key), &back));
  EXPECT_EQ(back, key);
  EXPECT_FALSE(serve::parse_job_key("", &back));
  EXPECT_FALSE(serve::parse_job_key("c07e", &back));
  EXPECT_FALSE(serve::parse_job_key("c07ebd46bf789f5g", &back));
  EXPECT_FALSE(serve::parse_job_key("c07ebd46bf789f57aa", &back));
}

TEST(JobSpec, EscapeRoundTripsArbitraryText) {
  for (const char* raw : {"", "plain", "two words", "100% done\nnext line",
                          "-leading dash", "\x01\x7f\xff"}) {
    const std::string s = raw;
    const std::string esc = serve::serve_escape(s);
    EXPECT_EQ(esc.find(' '), std::string::npos);
    EXPECT_EQ(esc.find('\n'), std::string::npos);
    std::string back;
    ASSERT_TRUE(serve::serve_unescape(esc, &back));
    EXPECT_EQ(back, s);
  }
}

TEST(JobSpec, SpecFilePersistsAttemptsAndRejectsTampering) {
  const std::string path = ::testing::TempDir() + "serve_spec_test.spec";
  JobSpec spec;
  spec.options.glitch_threshold = 0.25;
  std::string err;
  ASSERT_TRUE(serve::write_spec_file(path, spec, 3, &err)) << err;

  JobSpec back;
  std::size_t attempts = 0;
  ASSERT_TRUE(serve::load_spec_file(path, &back, &attempts, &err)) << err;
  EXPECT_EQ(attempts, 3u);
  EXPECT_EQ(back.key(), spec.key());

  // Flip the spec body without updating the filed key: the re-parsed
  // spec no longer hashes to the key, and the load must refuse.
  std::ifstream in(path);
  std::string header, body;
  std::getline(in, header);
  std::getline(in, body);
  in.close();
  const std::size_t pos = body.find("threshold=");
  ASSERT_NE(pos, std::string::npos);
  body.replace(pos, std::strlen("threshold=0x1p-2"), "threshold=0x1p-3");
  std::ofstream out(path);
  out << header << '\n' << body << '\n';
  out.close();
  EXPECT_FALSE(serve::load_spec_file(path, &back, &attempts, &err));
  EXPECT_NE(err.find("hashes to"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(JobSpec, DoneFileRoundTripsAndRejectsNonTerminalStates) {
  const std::string path = ::testing::TempDir() + "serve_done_test.done";
  std::string err;
  ASSERT_TRUE(serve::write_done_file(path, 42, JobState::kConceded,
                                     "reason with spaces", &err))
      << err;
  std::uint64_t key = 0;
  JobState state = JobState::kQueued;
  std::string summary;
  ASSERT_TRUE(serve::load_done_file(path, &key, &state, &summary));
  EXPECT_EQ(key, 42u);
  EXPECT_EQ(state, JobState::kConceded);
  EXPECT_EQ(summary, "reason with spaces");

  // A "running" marker is nonsense for a terminal file.
  std::ofstream out(path);
  out << "xtvsd 000000000000002a running -\n";
  out.close();
  EXPECT_FALSE(serve::load_done_file(path, &key, &state, &summary));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Unit: backoff schedule and admission bound.

TEST(Backoff, GrowsExponentiallyAndCaps) {
  BackoffPolicy p;
  p.base_ms = 100.0;
  p.factor = 2.0;
  p.max_ms = 900.0;
  EXPECT_DOUBLE_EQ(p.delay_ms(0), 100.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(1), 200.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(2), 400.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(3), 800.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(4), 900.0);   // capped
  EXPECT_DOUBLE_EQ(p.delay_ms(60), 900.0);  // no overflow blowup
}

TEST(AdmissionQueue, BoundsAdmissionButNeverDropsRequeues) {
  AdmissionQueue q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(3));  // explicit pushback, not growth
  EXPECT_EQ(q.size(), 2u);

  // A benched (failed-attempt) job still owns its slot, and benching is
  // allowed even at capacity: the job was already admitted.
  BackoffPolicy p;
  p.base_ms = 1000.0;
  std::uint64_t key = 0;
  ASSERT_TRUE(q.pop_ready(0.0, &key));
  EXPECT_EQ(key, 1u);
  q.push_backoff(1, 0, 0.0, p);
  EXPECT_TRUE(q.full());
  EXPECT_TRUE(q.contains(1));

  // Not ripe yet: the FIFO job runs first.
  ASSERT_TRUE(q.pop_ready(10.0, &key));
  EXPECT_EQ(key, 2u);
  EXPECT_FALSE(q.pop_ready(999.0, &key));  // bench not ripe, FIFO empty
  EXPECT_DOUBLE_EQ(q.next_ripe_ms(), 1000.0);
  ASSERT_TRUE(q.pop_ready(1000.0, &key));
  EXPECT_EQ(key, 1u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(AdmissionQueue, RipeBackoffJobsRunBeforeTheFifo) {
  AdmissionQueue q(4);
  BackoffPolicy p;
  p.base_ms = 50.0;
  q.push(7);
  q.push_backoff(9, 0, 0.0, p);
  std::uint64_t key = 0;
  ASSERT_TRUE(q.pop_ready(60.0, &key));
  EXPECT_EQ(key, 9u);  // older by construction: it was admitted earlier
  ASSERT_TRUE(q.pop_ready(60.0, &key));
  EXPECT_EQ(key, 7u);
}

TEST(AdmissionQueue, EraseDropsEveryEntryForAKey) {
  AdmissionQueue q(4);
  BackoffPolicy p;
  q.push(5);
  q.push_backoff(5, 0, 0.0, p);
  EXPECT_EQ(q.erase(5), 2u);
  EXPECT_FALSE(q.contains(5));
  EXPECT_EQ(q.size(), 0u);
}

TEST(AdmissionQueue, PushFrontRequeuesAheadOfTheFifo) {
  AdmissionQueue q(4);
  q.push(1);
  q.push(2);
  q.push_front(3);  // a shed job reclaims the head, not the tail
  std::vector<std::uint64_t> ready;
  q.ready_keys(0.0, &ready);
  ASSERT_EQ(ready.size(), 3u);
  EXPECT_EQ(ready[0], 3u);
  EXPECT_EQ(ready[1], 1u);
  EXPECT_EQ(ready[2], 2u);

  // ready_keys is non-destructive; take() claims exactly one entry.
  EXPECT_TRUE(q.take(1));
  EXPECT_FALSE(q.take(1));
  q.ready_keys(0.0, &ready);
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0], 3u);
  EXPECT_EQ(ready[1], 2u);
}

TEST(AdmissionQueue, ReadyKeysListsRipeBackoffBeforeTheFifo) {
  AdmissionQueue q(4);
  BackoffPolicy p;
  p.base_ms = 100.0;
  q.push(7);
  q.push_backoff(9, 0, 0.0, p);
  std::vector<std::uint64_t> ready;
  q.ready_keys(50.0, &ready);  // bench not ripe yet
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 7u);
  q.ready_keys(150.0, &ready);
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0], 9u);
  EXPECT_EQ(ready[1], 7u);
}

// ---------------------------------------------------------------------------
// Unit: per-job design references and the key / options-hash split.

TEST(JobSpec, DesignRefSplitsTheKeyFromTheOptionsHash) {
  JobSpec resident, perjob;
  std::string err;
  ASSERT_TRUE(JobSpec::parse("nets=40", &perjob, &err)) << err;
  EXPECT_TRUE(perjob.has_design_ref());
  EXPECT_FALSE(resident.has_design_ref());

  // Same verifier options -> same journal-header hash; but the job
  // identity must also cover WHAT is being verified.
  EXPECT_EQ(resident.options_hash(), perjob.options_hash());
  EXPECT_EQ(resident.key(), resident.options_hash());
  EXPECT_NE(perjob.key(), perjob.options_hash());
  EXPECT_NE(perjob.key(), resident.key());

  JobSpec other;
  ASSERT_TRUE(JobSpec::parse("nets=41", &other, &err)) << err;
  EXPECT_NE(other.key(), perjob.key());

  // mem_mb is a scheduling hint, never identity.
  JobSpec heavy;
  ASSERT_TRUE(JobSpec::parse("nets=40 mem_mb=512", &heavy, &err)) << err;
  EXPECT_EQ(heavy.key(), perjob.key());
}

TEST(JobSpec, DesignRefRoundTripsThroughText) {
  JobSpec spec;
  std::string err;
  ASSERT_TRUE(JobSpec::parse("nets=40 rows=2 chip_seed=7", &spec, &err))
      << err;
  JobSpec back;
  ASSERT_TRUE(JobSpec::parse(spec.to_text(), &back, &err)) << err;
  EXPECT_EQ(back.to_text(), spec.to_text());
  EXPECT_EQ(back.key(), spec.key());
}

TEST(JobSpec, RejectsInconsistentDesignRefs) {
  const char* bad[] = {
      "rows=2",                      // rows without a per-job design
      "chip_seed=3",                 // seed without a per-job design
      "design=/nonexistent/xtvds",   // unreadable file dies at parse time
      "mem_mb=-1",
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    JobSpec spec;
    std::string err;
    EXPECT_FALSE(JobSpec::parse(text, &spec, &err));
    EXPECT_FALSE(err.empty());
  }
}

TEST(JobSpec, DesignFileResolvesToTheSameKeyAsInlineTokens) {
  const std::string path = ::testing::TempDir() + "serve_design_test.xtvds";
  {
    std::ofstream out(path);
    out << "xtvds nets=40 rows=2 seed=7\n";
  }
  JobSpec from_file, inline_spec;
  std::string err;
  ASSERT_TRUE(JobSpec::parse("design=" + path, &from_file, &err)) << err;
  ASSERT_TRUE(
      JobSpec::parse("nets=40 rows=2 chip_seed=7", &inline_spec, &err))
      << err;
  EXPECT_EQ(from_file.key(), inline_spec.key());

  JobSpec both;
  EXPECT_FALSE(JobSpec::parse("design=" + path + " nets=40", &both, &err));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Unit: cross-job resource governor.

TEST(Governor, ReservationLedgerTracksChargesAndReleases) {
  ResourceGovernor g(100.0);
  ASSERT_TRUE(g.enabled());
  EXPECT_TRUE(g.fits(60.0));
  g.reserve(1, 60.0);
  EXPECT_DOUBLE_EQ(g.reserved_mb(), 60.0);
  EXPECT_TRUE(g.fits(40.0));
  EXPECT_FALSE(g.fits(41.0));
  g.reserve(1, 30.0);  // re-reserving replaces, never accumulates
  EXPECT_DOUBLE_EQ(g.reserved_mb(), 30.0);
  g.release(1);
  g.release(1);  // double release is a no-op
  EXPECT_DOUBLE_EQ(g.reserved_mb(), 0.0);
  EXPECT_EQ(g.held(), 0u);
}

TEST(Governor, LoneOversizedJobRunsOnlyOnAnEmptyLedger) {
  ResourceGovernor g(100.0);
  EXPECT_TRUE(g.fits(150.0));  // nothing running: let it have the machine
  g.reserve(1, 10.0);
  EXPECT_FALSE(g.fits(150.0));
  g.release(1);
  EXPECT_TRUE(g.fits(150.0));
}

TEST(Governor, DisabledGovernorAdmitsStrictlyFifo) {
  ResourceGovernor g(0.0);
  EXPECT_FALSE(g.enabled());
  EXPECT_TRUE(g.fits(1e9));
  const std::vector<LaunchCandidate> ready = {{2, 500.0, 20.0},
                                              {1, 1.0, 10.0}};
  EXPECT_EQ(serve::pick_admission(ready, 100.0, 5000.0, g), 1u);  // oldest
}

TEST(Governor, LargestFittingReservationWins) {
  ResourceGovernor g(100.0);
  g.reserve(9, 40.0);
  const std::vector<LaunchCandidate> ready = {
      {1, 30.0, 10.0}, {2, 55.0, 20.0}, {3, 70.0, 5.0}};
  // 70 does not fit on top of 40; 55 is the largest that does.
  EXPECT_EQ(serve::pick_admission(ready, 100.0, 0.0, g), 1u);
  // Ties go to the older job.
  const std::vector<LaunchCandidate> tied = {{1, 55.0, 20.0},
                                             {2, 55.0, 10.0}};
  EXPECT_EQ(serve::pick_admission(tied, 100.0, 0.0, g), 1u);
}

TEST(Governor, AgedJobPromotesAndStallsTheLineUntilItFits) {
  ResourceGovernor g(100.0);
  g.reserve(9, 60.0);
  // now=10000, promote=5000: candidate 0 (enqueued at 0) is aged; its
  // 50 MiB does not fit on top of the 60 reserved, so the WHOLE line
  // stalls — candidate 1 would fit but must not overtake.
  const std::vector<LaunchCandidate> ready = {{1, 50.0, 0.0},
                                              {2, 60.0, 9000.0}};
  EXPECT_EQ(serve::pick_admission(ready, 10000.0, 5000.0, g),
            serve::kNoAdmission);
  g.release(9);
  EXPECT_EQ(serve::pick_admission(ready, 10000.0, 5000.0, g), 0u);
  // Without aging the largest fitting job would have won instead.
  EXPECT_EQ(serve::pick_admission(ready, 10000.0, 0.0, g), 1u);
}

// ---------------------------------------------------------------------------
// Integration: a live forked daemon driven over its socket.

/// Scoped environment variable (the serve chaos hooks are env-driven and
/// inherited by the forked daemon and its runners).
struct EnvGuard {
  std::string name;
  EnvGuard(const char* n, const std::string& v) : name(n) {
    ::setenv(n, v.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(name.c_str()); }
};

class ServeFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kNets = 60;

  /// Parent-side replica of the daemon's resident design (identical
  /// construction: default technology, default characterization, DSP
  /// chip with only net_count overridden). Built once for the suite.
  struct Reference {
    Technology tech = Technology::default_250nm();
    CellLibrary lib;
    CharacterizedLibrary chars;
    Extractor extractor;
    ChipDesign design;
    Reference() : lib(tech), chars(lib), extractor(tech), design([&] {
      DspChipOptions chip;
      chip.net_count = kNets;
      return generate_dsp_chip(lib, chip);
    }()) {}
  };
  static Reference& ref() {
    static Reference* r = new Reference();
    return *r;
  }

  void SetUp() override {
    dir_ = ::testing::TempDir() + "serve_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    remove_tree(dir_);
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0) << dir_;
    socket_ = dir_ + "/s.sock";
    jobs_ = dir_ + "/jobs";
  }

  void TearDown() override {
    if (daemon_pid_ > 0) kill_daemon();
    reap_orphan_runners();
    remove_tree(dir_);
  }

  /// The Reference characterization, saved once per process. Every
  /// forked daemon loads it, so none characterizes the library before it
  /// binds: under ASan that alone outlasted wait_ready's 60 s.
  static const std::string& warm_cell_cache() {
    if (cell_cache_.empty()) {
      const std::string path = ::testing::TempDir() + "xtv_serve_cells_" +
                               std::to_string(::getpid()) + ".cache";
      chip_net_summaries(ref().design, ref().extractor, ref().chars);
      ref().chars.save(path);
      cell_cache_ = path;
    }
    return cell_cache_;
  }

  static void TearDownTestSuite() {
    if (!cell_cache_.empty()) std::remove(cell_cache_.c_str());
  }

  serve::DaemonOptions daemon_options() {
    serve::DaemonOptions opt;
    opt.socket_path = socket_;
    opt.jobs_dir = jobs_;
    opt.cell_cache = warm_cell_cache();
    opt.net_count = kNets;
    opt.default_processes = 2;
    opt.backoff.base_ms = 50.0;
    opt.backoff.max_ms = 200.0;
    return opt;
  }

  void start_daemon(const serve::DaemonOptions& opt) {
    ASSERT_LT(daemon_pid_, 0) << "daemon already running";
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      serve::ServeDaemon daemon(opt);
      ::_exit(daemon.run());
    }
    daemon_pid_ = pid;
    wait_ready();
  }

  /// Polls the socket until the daemon accepts connections (design
  /// generation and characterization happen before the bind).
  void wait_ready(double timeout_ms = 60000.0) {
    for (double waited = 0.0; waited < timeout_ms; waited += 50.0) {
      serve::ServeClient probe;
      std::string err;
      if (probe.connect(socket_, &err)) return;
      int status = 0;
      ASSERT_EQ(::waitpid(daemon_pid_, &status, WNOHANG), 0)
          << "daemon exited during startup, status " << status;
      ::usleep(50000);
    }
    FAIL() << "daemon never became ready on " << socket_;
  }

  /// SIGTERM + wait; returns the daemon's exit status info.
  int drain_daemon(double timeout_ms = 60000.0) {
    EXPECT_GT(daemon_pid_, 0);
    ::kill(daemon_pid_, SIGTERM);
    return await_daemon_exit(timeout_ms);
  }

  int await_daemon_exit(double timeout_ms = 60000.0) {
    int status = -1;
    for (double waited = 0.0; waited < timeout_ms; waited += 20.0) {
      const pid_t r = ::waitpid(daemon_pid_, &status, WNOHANG);
      if (r == daemon_pid_) {
        daemon_pid_ = -1;
        return status;
      }
      ::usleep(20000);
    }
    ADD_FAILURE() << "daemon did not exit in time";
    kill_daemon();
    return -1;
  }

  void kill_daemon() {
    if (daemon_pid_ <= 0) return;
    ::kill(daemon_pid_, SIGKILL);
    int status = 0;
    ::waitpid(daemon_pid_, &status, 0);
    daemon_pid_ = -1;
  }

  /// After a SIGKILLed daemon, runners may survive in their own process
  /// groups; the .pid files locate them (same mechanism the daemon's own
  /// recovery uses).
  void reap_orphan_runners() {
    DIR* d = ::opendir(jobs_.c_str());
    if (!d) return;
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() < 4 || name.substr(name.size() - 4) != ".pid") continue;
      std::ifstream in(jobs_ + "/" + name);
      long pid = 0;
      if (in >> pid && pid > 1) {
        ::kill(-static_cast<pid_t>(pid), SIGKILL);
        ::kill(static_cast<pid_t>(pid), SIGKILL);
      }
    }
    ::closedir(d);
  }

  static void remove_tree(const std::string& path) {
    DIR* d = ::opendir(path.c_str());
    if (d) {
      while (dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        remove_tree(path + "/" + name);
      }
      ::closedir(d);
      ::rmdir(path.c_str());
    } else {
      std::remove(path.c_str());
    }
  }

  /// Submits without waiting for completion. Returns "" on acceptance,
  /// the daemon's rejection reason otherwise.
  std::string submit_nowait(serve::ServeClient& client, const JobSpec& spec) {
    std::string token = "t";
    token += serve::job_key_hex(spec.key());
    std::string err;
    if (!client.send(WireType::kJobSubmit, token + " " + spec.to_text(),
                     &err))
      return "send: " + err;
    for (;;) {
      WireFrame f;
      if (!client.recv(&f, 15000.0, &err)) return "recv: " + err;
      if (f.payload.rfind(token + " ", 0) != 0) continue;
      if (f.type == WireType::kJobAccepted) return "";
      if (f.type == WireType::kJobRejected)
        return f.payload.substr(token.size() + 1);
    }
  }

  /// One-shot status poll on a fresh connection: "<state> attempts=N ...".
  std::string query_status(std::uint64_t key) {
    serve::ServeClient client;
    std::string err;
    if (!client.connect(socket_, &err)) return "";
    const std::string hex = serve::job_key_hex(key);
    if (!client.send(WireType::kJobQuery, "q " + hex, &err)) return "";
    for (;;) {
      WireFrame f;
      if (!client.recv(&f, 15000.0, &err)) return "";
      if (f.type == WireType::kJobStatus && f.payload.rfind(hex + " ", 0) == 0)
        return f.payload.substr(hex.size() + 1);
      if (f.type == WireType::kJobRejected) return "unknown-job";
    }
  }

  void wait_for_state(std::uint64_t key, const std::string& state,
                      double timeout_ms = 30000.0) {
    for (double waited = 0.0; waited < timeout_ms; waited += 50.0) {
      const std::string status = query_status(key);
      if (status.rfind(state + " ", 0) == 0 || status == state) return;
      ::usleep(50000);
    }
    FAIL() << "job " << serve::job_key_hex(key) << " never reached state "
           << state << " (last: " << query_status(key) << ")";
  }

  /// The TCP endpoint the daemon published at boot (bind_tcp writes
  /// "<ip>:<port>\n" so port 0 requests are resolvable).
  std::string read_tcp_endpoint(double timeout_ms = 30000.0) {
    const std::string path = jobs_ + "/daemon.tcp";
    for (double waited = 0.0; waited < timeout_ms; waited += 50.0) {
      std::ifstream in(path);
      std::string ep;
      if (std::getline(in, ep) && !ep.empty()) return ep;
      ::usleep(50000);
    }
    ADD_FAILURE() << "daemon never published " << path;
    return "";
  }

  /// Raw TCP connect for byte-level (mutated-frame) injection that
  /// ServeClient's framing would refuse to send.
  static int raw_tcp_connect(const std::string& endpoint) {
    std::string host, port;
    if (!serve::parse_tcp_endpoint(endpoint, &host, &port)) return -1;
    addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0)
      return -1;
    int fd = -1;
    for (addrinfo* ai = res; ai; ai = ai->ai_next) {
      fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) continue;
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
      ::close(fd);
      fd = -1;
    }
    ::freeaddrinfo(res);
    return fd;
  }

  /// Reads (and discards keepalives etc.) until the peer closes. True on
  /// EOF within the deadline, false on timeout or error.
  static bool drains_to_eof(int fd, double timeout_ms) {
    for (double waited = 0.0; waited < timeout_ms;) {
      pollfd pfd{fd, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, 100);
      waited += 100.0;
      if (rc < 0 && errno == EINTR) continue;
      if (rc == 0) continue;
      char buf[4096];
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n == 0) return true;
      if (n < 0 && errno != EINTR) return false;
    }
    return false;
  }

  static std::size_t parse_attempts(const std::string& status) {
    const std::size_t pos = status.find("attempts=");
    if (pos == std::string::npos) return 0;
    return static_cast<std::size_t>(
        std::atol(status.c_str() + pos + std::strlen("attempts=")));
  }

  /// Direct in-process run with the spec's options — the bit-identity
  /// reference a served job must reproduce.
  static VerificationReport direct_report(const JobSpec& spec) {
    VerifierOptions vo = spec.to_options();
    vo.processes = 0;  // in-process == process-shard mode, per test_shard
    vo.threads = 1;
    ChipVerifier verifier(ref().extractor, ref().chars);
    return verifier.verify(ref().design, vo);
  }

  static void expect_matches_direct(const serve::JobResult& result,
                                    const VerificationReport& want) {
    ASSERT_EQ(result.findings.size(), want.findings.size());
    for (const VictimFinding& w : want.findings) {
      SCOPED_TRACE("victim net " + std::to_string(w.net));
      const auto it = result.findings.find(w.net);
      ASSERT_NE(it, result.findings.end());
      const VictimFinding& g = it->second.finding;
      EXPECT_EQ(g.peak, w.peak);  // bitwise: no tolerance
      EXPECT_EQ(g.peak_fraction, w.peak_fraction);
      EXPECT_EQ(g.violation, w.violation);
      EXPECT_EQ(g.status, w.status);
      EXPECT_EQ(g.error_code, w.error_code);
      EXPECT_EQ(g.aggressors_analyzed, w.aggressors_analyzed);
      EXPECT_EQ(g.reduced_order, w.reduced_order);
    }
  }

  std::string dir_, socket_, jobs_;
  pid_t daemon_pid_ = -1;
  static inline std::string cell_cache_;  // warm_cell_cache()'s file
};

TEST_F(ServeFixture, ServedJobMatchesDirectVerifyBitExactly) {
  start_daemon(daemon_options());
  JobSpec spec;

  serve::ServeClient client;
  std::string err;
  ASSERT_TRUE(client.connect(socket_, &err)) << err;
  serve::JobResult result;
  std::size_t streamed = 0;
  ASSERT_TRUE(serve::submit_and_wait(client, spec, 120000.0, &result, &err,
                                     [&](const JournalRecord&) {
                                       ++streamed;
                                     }))
      << err;
  EXPECT_EQ(result.state, JobState::kDone);
  EXPECT_EQ(result.duplicate_findings, 0u);
  EXPECT_EQ(streamed, result.findings.size());
  EXPECT_GT(result.findings.size(), 0u);

  // The on-disk journal is headed by the job key (identity invariant).
  std::ifstream journal(serve::job_paths(jobs_, spec.key()).journal);
  std::string header;
  ASSERT_TRUE(std::getline(journal, header));
  EXPECT_EQ(header, "xtvjh " + serve::job_key_hex(spec.key()));

  expect_matches_direct(result, direct_report(spec));
}

TEST_F(ServeFixture, ResubmitReplaysIdempotentlyWithoutRerunning) {
  start_daemon(daemon_options());
  JobSpec spec;

  serve::ServeClient first;
  std::string err;
  ASSERT_TRUE(first.connect(socket_, &err)) << err;
  serve::JobResult a;
  ASSERT_TRUE(serve::submit_and_wait(first, spec, 120000.0, &a, &err)) << err;
  ASSERT_EQ(a.state, JobState::kDone);

  // Same spec, fresh connection: the daemon replays the finished journal
  // instead of running anything — still exactly once per victim.
  serve::ServeClient second;
  ASSERT_TRUE(second.connect(socket_, &err)) << err;
  serve::JobResult b;
  ASSERT_TRUE(serve::submit_and_wait(second, spec, 30000.0, &b, &err)) << err;
  EXPECT_EQ(b.state, JobState::kDone);
  EXPECT_EQ(b.duplicate_findings, 0u);
  EXPECT_EQ(b.findings.size(), a.findings.size());
  EXPECT_EQ(parse_attempts(query_status(spec.key())), 1u);
}

TEST_F(ServeFixture, FullQueueRejectsExplicitly) {
  // First runner wedges forever (stall hook), pinning the single run
  // slot; capacity 1 then holds exactly one queued job.
  EnvGuard stall("XTV_TEST_SERVE_RUNNER_STALL", "1");
  serve::DaemonOptions opt = daemon_options();
  opt.queue_capacity = 1;
  opt.max_running = 1;
  start_daemon(opt);

  JobSpec running, queued, rejected;
  queued.options.glitch_threshold = 0.2;
  rejected.options.glitch_threshold = 0.3;

  serve::ServeClient client;
  std::string err;
  ASSERT_TRUE(client.connect(socket_, &err)) << err;
  ASSERT_EQ(submit_nowait(client, running), "");
  wait_for_state(running.key(), "running");

  ASSERT_EQ(submit_nowait(client, queued), "");
  const std::string reason = submit_nowait(client, rejected);
  EXPECT_EQ(reason.rfind("queue-full", 0), 0u) << reason;

  // The rejected job left no trace; the queued one is still admitted.
  EXPECT_EQ(query_status(rejected.key()), "unknown-job");
  EXPECT_EQ(query_status(queued.key()).rfind("queued", 0), 0u);
}

TEST_F(ServeFixture, CrashedRunnerRetriesAndSucceeds) {
  // The first runner attempt aborts at startup; the retry (after a short
  // backoff) must complete with the full result.
  EnvGuard crash("XTV_TEST_SERVE_RUNNER_CRASH", "1");
  start_daemon(daemon_options());
  JobSpec spec;

  serve::ServeClient client;
  std::string err;
  ASSERT_TRUE(client.connect(socket_, &err)) << err;
  serve::JobResult result;
  ASSERT_TRUE(serve::submit_and_wait(client, spec, 120000.0, &result, &err))
      << err;
  EXPECT_EQ(result.state, JobState::kDone);
  EXPECT_EQ(result.duplicate_findings, 0u);
  EXPECT_EQ(parse_attempts(query_status(spec.key())), 2u);
  expect_matches_direct(result, direct_report(spec));
}

TEST_F(ServeFixture, WedgedRunnerIsReapedByTheGraceTimeout) {
  // The first runner pauses forever before its first heartbeat; the
  // startup grace is the only thing that can catch it.
  EnvGuard stall("XTV_TEST_SERVE_RUNNER_STALL", "1");
  serve::DaemonOptions opt = daemon_options();
  opt.runner_grace_ms = 400.0;
  start_daemon(opt);
  JobSpec spec;

  serve::ServeClient client;
  std::string err;
  ASSERT_TRUE(client.connect(socket_, &err)) << err;
  serve::JobResult result;
  ASSERT_TRUE(serve::submit_and_wait(client, spec, 120000.0, &result, &err))
      << err;
  EXPECT_EQ(result.state, JobState::kDone);
  EXPECT_EQ(result.duplicate_findings, 0u);
  EXPECT_EQ(parse_attempts(query_status(spec.key())), 2u);
}

TEST_F(ServeFixture, RetryExhaustionConcedesEveryVictimExplicitly) {
  // Every attempt crashes; after 1 + retries attempts the daemon must
  // concede — and a concession is a complete, explicit answer: every
  // candidate victim gets a pessimistic kShardCrashed record.
  EnvGuard crash("XTV_TEST_SERVE_RUNNER_CRASH", "99");
  serve::DaemonOptions opt = daemon_options();
  opt.default_retries = 1;
  start_daemon(opt);
  JobSpec spec;

  serve::ServeClient client;
  std::string err;
  ASSERT_TRUE(client.connect(socket_, &err)) << err;
  serve::JobResult result;
  ASSERT_TRUE(serve::submit_and_wait(client, spec, 120000.0, &result, &err))
      << err;
  EXPECT_EQ(result.state, JobState::kConceded);
  EXPECT_EQ(result.duplicate_findings, 0u);
  EXPECT_EQ(parse_attempts(query_status(spec.key())), 2u);

  // Candidate count, recomputed the way the daemon does it.
  const std::vector<NetSummary> sums =
      chip_net_summaries(ref().design, ref().extractor, ref().chars);
  const PruneResult pruned = prune_couplings(sums, VerifierOptions().prune);
  std::size_t expected = 0;
  for (std::size_t v = 0; v < ref().design.nets.size(); ++v)
    if (!pruned.retained[v].empty()) ++expected;
  ASSERT_GT(expected, 0u);
  EXPECT_EQ(result.findings.size(), expected);

  for (const auto& [net, rec] : result.findings) {
    SCOPED_TRACE("victim net " + std::to_string(net));
    EXPECT_EQ(rec.finding.status, FindingStatus::kShardCrashed);
    EXPECT_EQ(rec.finding.error_code, StatusCode::kWorkerCrashed);
    EXPECT_TRUE(rec.finding.violation);
    EXPECT_EQ(rec.finding.peak_fraction, 1.0);
    EXPECT_NE(rec.finding.error.find("conceded by serve daemon"),
              std::string::npos)
        << rec.finding.error;
  }
}

TEST_F(ServeFixture, SigtermDrainFinishesInFlightJobsAndExitsZero) {
  start_daemon(daemon_options());
  JobSpec spec;

  serve::ServeClient client;
  std::string err;
  ASSERT_TRUE(client.connect(socket_, &err)) << err;
  serve::JobResult result;
  bool signalled = false;
  ASSERT_TRUE(serve::submit_and_wait(client, spec, 120000.0, &result, &err,
                                     [&](const JournalRecord&) {
                                       // Drain mid-run: the in-flight job
                                       // must still complete and stream.
                                       if (!signalled) {
                                         signalled = true;
                                         ::kill(daemon_pid_, SIGTERM);
                                       }
                                     }))
      << err;
  ASSERT_TRUE(signalled);
  EXPECT_EQ(result.state, JobState::kDone);
  EXPECT_EQ(result.duplicate_findings, 0u);

  const int status = await_daemon_exit();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  expect_matches_direct(result, direct_report(spec));
}

TEST_F(ServeFixture, DaemonSigkillThenRestartRecoversTheJob) {
  start_daemon(daemon_options());
  JobSpec spec;

  {
    serve::ServeClient client;
    std::string err;
    ASSERT_TRUE(client.connect(socket_, &err)) << err;
    ASSERT_EQ(submit_nowait(client, spec), "");
    wait_for_state(spec.key(), "running");
  }
  ::usleep(150000);  // let the runner get some victims into the journal
  kill_daemon();
  reap_orphan_runners();

  // Restart over the same jobs directory: recovery either finds the
  // orphaned runner's finished journal or requeues the interrupted job
  // with its persisted attempt count — both converge to a full "done".
  start_daemon(daemon_options());
  serve::ServeClient client;
  std::string err;
  ASSERT_TRUE(client.connect(socket_, &err)) << err;
  serve::JobResult result;
  ASSERT_TRUE(serve::submit_and_wait(client, spec, 120000.0, &result, &err))
      << err;
  EXPECT_EQ(result.state, JobState::kDone);
  EXPECT_EQ(result.duplicate_findings, 0u);
  expect_matches_direct(result, direct_report(spec));
}

TEST_F(ServeFixture, ClientDisconnectDoesNotKillTheJob) {
  start_daemon(daemon_options());
  JobSpec spec;

  {
    serve::ServeClient client;
    std::string err;
    ASSERT_TRUE(client.connect(socket_, &err)) << err;
    ASSERT_EQ(submit_nowait(client, spec), "");
    // Vanish immediately: the daemon must keep running the job.
  }

  serve::ServeClient client;
  std::string err;
  ASSERT_TRUE(client.connect(socket_, &err)) << err;
  serve::JobResult result;
  ASSERT_TRUE(serve::submit_and_wait(client, spec, 120000.0, &result, &err))
      << err;
  EXPECT_EQ(result.state, JobState::kDone);
  EXPECT_EQ(result.duplicate_findings, 0u);
  EXPECT_GT(result.findings.size(), 0u);
}

TEST_F(ServeFixture, DrainingDaemonRejectsNewSubmissions) {
  start_daemon(daemon_options());

  // Give the drain something to wait on: submit, then immediately ask
  // for the drain and probe admission while it is in progress.
  JobSpec spec;
  serve::ServeClient client;
  std::string err;
  ASSERT_TRUE(client.connect(socket_, &err)) << err;
  ASSERT_EQ(submit_nowait(client, spec), "");
  ::kill(daemon_pid_, SIGTERM);
  ::usleep(50000);

  JobSpec late;
  late.options.glitch_threshold = 0.5;
  serve::ServeClient other;
  if (other.connect(socket_, &err)) {
    const std::string reason = submit_nowait(other, late);
    // Either the daemon saw the drain and rejects, or it exited first
    // and the recv fails — both are acceptable; silent admission is not.
    if (reason.empty()) {
      FAIL() << "draining daemon admitted a new job";
    }
    if (reason.rfind("recv:", 0) != 0 && reason.rfind("send:", 0) != 0) {
      EXPECT_EQ(reason.rfind("draining", 0), 0u) << reason;
    }
  }

  const int status = await_daemon_exit();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ---------------------------------------------------------------------------
// Integration: concurrent runners, the TCP transport, and the governor.

TEST_F(ServeFixture, ConcurrentJobsAllCompleteBitExactly) {
  serve::DaemonOptions opt = daemon_options();
  opt.max_running = 3;
  start_daemon(opt);

  // audit_seed is part of the options hash but (with audit_fraction=0)
  // never of the findings: three distinct jobs, one expected answer.
  JobSpec specs[3];
  serve::ServeClient submitters[3];
  for (int i = 0; i < 3; ++i) {
    std::string err;
    ASSERT_TRUE(JobSpec::parse("audit_seed=" + std::to_string(i + 1),
                               &specs[i], &err))
        << err;
    ASSERT_TRUE(submitters[i].connect(socket_, &err)) << err;
    ASSERT_EQ(submit_nowait(submitters[i], specs[i]), "");
  }

  // At least two of the three must be observably in flight at once.
  bool saw_concurrent = false;
  for (double waited = 0.0; waited < 60000.0 && !saw_concurrent;
       waited += 100.0) {
    std::size_t running = 0, terminal = 0;
    for (const JobSpec& s : specs) {
      const std::string status = query_status(s.key());
      if (status.rfind("running", 0) == 0) ++running;
      if (status.rfind("done", 0) == 0 || status.rfind("conceded", 0) == 0)
        ++terminal;
    }
    if (running >= 2) saw_concurrent = true;
    if (terminal == 3) break;
    ::usleep(100000);
  }
  EXPECT_TRUE(saw_concurrent) << "never saw 2+ jobs running concurrently";

  // Every job completes, streams exactly once, and lands bit-identical
  // to the direct single-job reference.
  const VerificationReport want = direct_report(specs[0]);
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    serve::ServeClient client;
    std::string err;
    ASSERT_TRUE(client.connect(socket_, &err)) << err;
    serve::JobResult result;
    ASSERT_TRUE(
        serve::submit_and_wait(client, specs[i], 180000.0, &result, &err))
        << err;
    EXPECT_EQ(result.state, JobState::kDone);
    EXPECT_EQ(result.duplicate_findings, 0u);
    expect_matches_direct(result, want);
  }
}

TEST_F(ServeFixture, TcpSubmitMatchesDirectVerifyBitExactly) {
  serve::DaemonOptions opt = daemon_options();
  opt.listen_address = "127.0.0.1:0";
  start_daemon(opt);
  const std::string ep = read_tcp_endpoint();
  ASSERT_FALSE(ep.empty());

  JobSpec spec;
  serve::ServeClient client;
  std::string err;
  ASSERT_TRUE(client.connect(ep, &err)) << err;
  serve::JobResult result;
  ASSERT_TRUE(serve::submit_and_wait(client, spec, 120000.0, &result, &err))
      << err;
  EXPECT_EQ(result.state, JobState::kDone);
  EXPECT_EQ(result.duplicate_findings, 0u);
  EXPECT_GT(result.findings.size(), 0u);
  expect_matches_direct(result, direct_report(spec));
}

TEST_F(ServeFixture, TcpCorruptionSweepLatchesThatConnectionOnly) {
  serve::DaemonOptions opt = daemon_options();
  opt.listen_address = "127.0.0.1:0";
  opt.keepalive_ms = 0.0;  // quiet wire: EOF below means latch-and-close
  start_daemon(opt);
  const std::string ep = read_tcp_endpoint();
  ASSERT_FALSE(ep.empty());

  const std::string frame =
      wire_encode_frame(WireType::kJobQuery, "q 00000000000000aa");
  for (const auto& m : wiretest::negative_sweep(frame)) {
    SCOPED_TRACE(m.name);
    const int fd = raw_tcp_connect(ep);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::write(fd, m.bytes.data(), m.bytes.size()),
              static_cast<ssize_t>(m.bytes.size()));
    if (wiretest::classify(m.bytes) == wiretest::StreamVerdict::kCorrupt) {
      // The daemon must latch corruption and close THIS connection.
      EXPECT_TRUE(drains_to_eof(fd, 15000.0));
    }
    ::close(fd);
  }

  // ...without disrupting the daemon: a clean TCP submit still runs.
  JobSpec spec;
  serve::ServeClient client;
  std::string err;
  ASSERT_TRUE(client.connect(ep, &err)) << err;
  serve::JobResult result;
  ASSERT_TRUE(serve::submit_and_wait(client, spec, 120000.0, &result, &err))
      << err;
  EXPECT_EQ(result.state, JobState::kDone);
  EXPECT_EQ(result.duplicate_findings, 0u);
}

TEST_F(ServeFixture, ConnectionCapRejectsWithAnExplicitFrame) {
  serve::DaemonOptions opt = daemon_options();
  opt.listen_address = "127.0.0.1:0";
  opt.max_connections = 2;
  start_daemon(opt);
  const std::string ep = read_tcp_endpoint();
  ASSERT_FALSE(ep.empty());

  serve::ServeClient a, b;
  std::string err;
  ASSERT_TRUE(a.connect(ep, &err)) << err;
  ASSERT_TRUE(b.connect(ep, &err)) << err;
  // Round-trip on `a` so the daemon has provably registered both (and
  // processed the ready-probe's disconnect) before the third knocks.
  ASSERT_TRUE(a.send(WireType::kJobQuery, "q 0000000000000000", &err)) << err;
  WireFrame f;
  ASSERT_TRUE(a.recv(&f, 15000.0, &err)) << err;

  serve::ServeClient c;
  ASSERT_TRUE(c.connect(ep, &err)) << err;  // the accept queue takes it...
  WireFrame rej;
  ASSERT_TRUE(c.recv(&rej, 15000.0, &err)) << err;
  EXPECT_EQ(rej.type, WireType::kJobRejected);
  EXPECT_EQ(rej.payload.rfind("- conn-limit ", 0), 0u) << rej.payload;
  EXPECT_FALSE(c.recv(&rej, 15000.0, &err));  // ...then closes it
  EXPECT_NE(err.find("closed"), std::string::npos) << err;

  // Freeing a slot re-opens admission.
  a.close();
  for (double waited = 0.0; waited < 15000.0; waited += 100.0) {
    serve::ServeClient d;
    if (d.connect(ep, &err) &&
        d.send(WireType::kJobQuery, "q 0000000000000000", &err) &&
        d.recv(&f, 2000.0, &err))
      return;
    ::usleep(100000);
  }
  FAIL() << "slot never freed after a client disconnect";
}

TEST_F(ServeFixture, SlowLorisHalfFrameIsEvicted) {
  serve::DaemonOptions opt = daemon_options();
  opt.listen_address = "127.0.0.1:0";
  opt.io_timeout_ms = 500.0;
  start_daemon(opt);
  const std::string ep = read_tcp_endpoint();
  ASSERT_FALSE(ep.empty());

  const std::string frame =
      wire_encode_frame(WireType::kJobQuery, "q 00000000000000aa");
  const int fd = raw_tcp_connect(ep);
  ASSERT_GE(fd, 0);
  // Half a frame, then silence: the read deadline must evict us.
  ASSERT_EQ(::write(fd, frame.data(), frame.size() / 2),
            static_cast<ssize_t>(frame.size() / 2));
  EXPECT_TRUE(drains_to_eof(fd, 15000.0));
  ::close(fd);

  // An honest client on the same daemon is unaffected (idle connections
  // have nothing buffered, so the deadline does not apply to them).
  serve::ServeClient client;
  std::string err;
  ASSERT_TRUE(client.connect(ep, &err)) << err;
  ASSERT_TRUE(client.send(WireType::kJobQuery, "q 00000000000000aa", &err))
      << err;
  WireFrame f;
  ASSERT_TRUE(client.recv(&f, 15000.0, &err)) << err;
  EXPECT_EQ(f.type, WireType::kJobRejected);  // unknown-job — but served
}

TEST_F(ServeFixture, RestartAfterSigkillSweepsStaleSocketAndPidFile) {
  start_daemon(daemon_options());
  kill_daemon();

  // SIGKILL leaves both boot artifacts behind...
  struct stat st;
  EXPECT_EQ(::stat(socket_.c_str(), &st), 0);
  EXPECT_EQ(::stat((jobs_ + "/daemon.pid").c_str(), &st), 0);

  // ...and a cold restart must sweep them and come up serving.
  start_daemon(daemon_options());
  const int status = drain_daemon();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST_F(ServeFixture, SecondDaemonRefusesTheLiveJobsDir) {
  start_daemon(daemon_options());
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    serve::ServeDaemon second(daemon_options());
    ::_exit(second.run());
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);  // refused: the pid file is live
}

TEST_F(ServeFixture, OversizedOrUnreadableDesignRefsDieAtAdmission) {
  serve::DaemonOptions opt = daemon_options();
  opt.max_job_nets = 100;
  start_daemon(opt);

  JobSpec spec;
  std::string err;
  ASSERT_TRUE(JobSpec::parse("nets=500", &spec, &err)) << err;
  serve::ServeClient client;
  ASSERT_TRUE(client.connect(socket_, &err)) << err;
  const std::string reason = submit_nowait(client, spec);
  EXPECT_EQ(reason.rfind("oversized", 0), 0u) << reason;
  EXPECT_EQ(query_status(spec.key()), "unknown-job");  // no trace

  // An unreadable design= file dies at the same gate (raw frame: the
  // client-side parse would have refused to build this spec at all).
  ASSERT_TRUE(client.send(WireType::kJobSubmit,
                          "traw design=/nonexistent/xtv_missing.xtvds",
                          &err))
      << err;
  for (;;) {
    WireFrame f;
    ASSERT_TRUE(client.recv(&f, 15000.0, &err)) << err;
    if (f.payload.rfind("traw ", 0) != 0) continue;
    EXPECT_EQ(f.type, WireType::kJobRejected);
    EXPECT_EQ(f.payload.rfind("traw bad-spec ", 0), 0u) << f.payload;
    break;
  }
}

TEST_F(ServeFixture, PerJobDesignMatchesItsOwnDirectVerify) {
  start_daemon(daemon_options());
  JobSpec spec;
  std::string err;
  ASSERT_TRUE(JobSpec::parse("nets=40", &spec, &err)) << err;

  serve::ServeClient client;
  ASSERT_TRUE(client.connect(socket_, &err)) << err;
  serve::JobResult result;
  ASSERT_TRUE(serve::submit_and_wait(client, spec, 120000.0, &result, &err))
      << err;
  EXPECT_EQ(result.state, JobState::kDone);
  EXPECT_EQ(result.duplicate_findings, 0u);
  EXPECT_GT(result.findings.size(), 0u);

  // Reference on the job's OWN 40-net generated design — not the
  // daemon's 60-net resident one.
  DspChipOptions chip;
  chip.net_count = 40;
  const ChipDesign design = generate_dsp_chip(ref().lib, chip);
  VerifierOptions vo = spec.to_options();
  vo.processes = 0;
  vo.threads = 1;
  ChipVerifier verifier(ref().extractor, ref().chars);
  const VerificationReport want = verifier.verify(design, vo);
  ASSERT_EQ(result.findings.size(), want.findings.size());
  for (const VictimFinding& w : want.findings) {
    SCOPED_TRACE("victim net " + std::to_string(w.net));
    const auto it = result.findings.find(w.net);
    ASSERT_NE(it, result.findings.end());
    EXPECT_EQ(it->second.finding.peak, w.peak);
    EXPECT_EQ(it->second.finding.status, w.status);
  }
}

TEST_F(ServeFixture, MemoryPressureShedsTheYoungestAndRequeues) {
  const std::string rss = dir_ + "/rss_mb";
  {
    std::ofstream out(rss);
    out << "10\n";
  }
  EnvGuard rss_env("XTV_TEST_SERVE_RSS_FILE", rss);
  // Both first runners stall before their first heartbeat, holding the
  // two run slots while the test turns the pressure knob.
  EnvGuard stall("XTV_TEST_SERVE_RUNNER_STALL", "2");
  serve::DaemonOptions opt = daemon_options();
  opt.max_running = 2;
  opt.global_mem_soft_mb = 100.0;
  start_daemon(opt);

  // Explicit reservations that fit the budget TOGETHER (the structural
  // estimate for a 2-process job exceeds 100 MiB on its own, which would
  // serialize the jobs and leave nothing to shed).
  JobSpec a, b;
  std::string err;
  ASSERT_TRUE(JobSpec::parse("audit_seed=1 mem_mb=40", &a, &err)) << err;
  ASSERT_TRUE(JobSpec::parse("audit_seed=2 mem_mb=40", &b, &err)) << err;

  serve::ServeClient client;
  ASSERT_TRUE(client.connect(socket_, &err)) << err;
  ASSERT_EQ(submit_nowait(client, a), "");
  wait_for_state(a.key(), "running");
  ASSERT_EQ(submit_nowait(client, b), "");
  wait_for_state(b.key(), "running");  // b launched strictly after a

  // Blow through the soft budget: the daemon must shed the YOUNGEST job
  // (b) back to queued with its attempt count refunded — and leave a
  // alone (shedding never reduces the service below one runner).
  {
    std::ofstream out(rss);
    out << "500\n";
  }
  wait_for_state(b.key(), "queued");
  EXPECT_EQ(parse_attempts(query_status(b.key())), 0u);
  EXPECT_EQ(query_status(a.key()).rfind("running", 0), 0u)
      << query_status(a.key());

  // While pressure holds, b stays parked (the launch gate reads the same
  // RSS signal).
  ::usleep(300000);
  EXPECT_EQ(query_status(b.key()).rfind("queued", 0), 0u)
      << query_status(b.key());

  // Pressure gone: b relaunches (its stall token is long spent) and
  // completes normally.
  {
    std::ofstream out(rss);
    out << "10\n";
  }
  wait_for_state(b.key(), "done", 120000.0);
}

}  // namespace
}  // namespace xtv
