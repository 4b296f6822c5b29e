// Staged-pipeline tests (DESIGN.md §11): the per-victim state machine,
// the cluster fingerprint, the reduced-model cache, and the DenseMatrix
// allocations per victim. The load-bearing contract: a cache hit, a parallel
// run, and a journal resume all produce findings bit-identical to a
// fresh serial no-cache run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "chipgen/dsp_chip.h"
#include "core/pipeline.h"
#include "core/verifier.h"
#include "mor/model_cache.h"
#include "netlist/rc_network.h"
#include "util/status.h"
#include "util/workspace.h"

namespace xtv {
namespace {

const Technology kTech = Technology::default_250nm();

class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new CellLibrary(kTech);
    CharacterizeOptions copt;
    copt.iv_grid = 11;
    chars_ = new CharacterizedLibrary(*lib_, copt);
    extractor_ = new Extractor(kTech);
    // Row-tiled design: three identical 30-net rows, so every cluster
    // pencil of row 0 recurs in rows 1 and 2 — the cache's workload.
    DspChipOptions chip_opt;
    chip_opt.net_count = 90;
    chip_opt.tracks = 9;
    chip_opt.replicate_rows = 3;
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

  static VerifierOptions fast_options() {
    VerifierOptions options;
    options.glitch.align_aggressors = false;
    options.glitch.tstop = 3e-9;
    return options;
  }

  static std::string temp_path(const char* name) {
    return ::testing::TempDir() + name;
  }

  /// Full structural equality of two reports: every result field of every
  /// finding, bitwise, plus the accounting counters. Cache statistics are
  /// deliberately NOT compared — hit counts are allowed to differ while
  /// findings must not.
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
      EXPECT_EQ(x.driver_rms_current, y.driver_rms_current);
      EXPECT_EQ(x.em_violation, y.em_violation);
      EXPECT_EQ(x.certified, y.certified);
      EXPECT_EQ(x.cert_max_rel_err, y.cert_max_rel_err);
      EXPECT_EQ(x.cert_order_escalations, y.cert_order_escalations);
      EXPECT_EQ(x.audited, y.audited);
      EXPECT_EQ(x.audit_pass, y.audit_pass);
    }
    EXPECT_EQ(a.victims_eligible, b.victims_eligible);
    EXPECT_EQ(a.victims_analyzed, b.victims_analyzed);
    EXPECT_EQ(a.victims_screened_out, b.victims_screened_out);
    EXPECT_EQ(a.victims_retried, b.victims_retried);
    EXPECT_EQ(a.victims_fallback, b.victims_fallback);
    EXPECT_EQ(a.victims_failed, b.victims_failed);
    EXPECT_EQ(a.victims_certified, b.victims_certified);
    EXPECT_EQ(a.victims_accuracy_bound, b.victims_accuracy_bound);
    EXPECT_EQ(a.violations, b.violations);
  }

  static CellLibrary* lib_;
  static CharacterizedLibrary* chars_;
  static Extractor* extractor_;
  static ChipDesign* design_;
};

CellLibrary* PipelineFixture::lib_ = nullptr;
CharacterizedLibrary* PipelineFixture::chars_ = nullptr;
Extractor* PipelineFixture::extractor_ = nullptr;
ChipDesign* PipelineFixture::design_ = nullptr;

// ---------------------------------------------------------------------------
// Cluster fingerprint.

namespace fp {

/// Two electrically identical 3-node clusters whose elements are inserted
/// in different orders; `scale` perturbs one resistor for mismatch tests.
RcNetwork make_network(bool permuted, double scale = 1.0) {
  RcNetwork net;
  const int a = net.add_node("a");
  const int b = net.add_node("b");
  const int c = net.add_node("c");
  if (!permuted) {
    net.add_resistor(a, b, 100.0 * scale);
    net.add_resistor(b, c, 50.0);
    net.add_capacitor(a, RcNetwork::kGround, 1e-15);
    net.add_capacitor(b, c, 2e-15, /*coupling=*/true);
  } else {
    net.add_capacitor(b, c, 2e-15, /*coupling=*/true);
    net.add_capacitor(a, RcNetwork::kGround, 1e-15);
    net.add_resistor(b, c, 50.0);
    net.add_resistor(a, b, 100.0 * scale);
  }
  net.stamp_port_conductance(static_cast<std::size_t>(net.add_port(a)), 1e-3);
  net.stamp_port_conductance(static_cast<std::size_t>(net.add_port(c)), 2e-3);
  return net;
}

ClusterFingerprint print(const RcNetwork& net, const SympvlOptions& mor,
                         bool certify = false) {
  return cluster_fingerprint(net.g_matrix(), net.c_matrix(true),
                             net.b_matrix(), mor, certify,
                             /*cert_rel_tol=*/0.02, /*cert_freqs=*/5,
                             /*s_min=*/1e8, /*s_max=*/1e11);
}

}  // namespace fp

TEST_F(PipelineFixture, FingerprintInvariantToElementInsertionOrder) {
  SympvlOptions mor;
  mor.max_order = 8;
  const ClusterFingerprint f1 = fp::print(fp::make_network(false), mor);
  const ClusterFingerprint f2 = fp::print(fp::make_network(true), mor);
  // MNA assembly accumulates one addend per element per entry, and IEEE
  // addition of two values is commutative, so permuted insertion order
  // assembles bit-identical matrices: intentional collision.
  EXPECT_EQ(f1, f2);
}

TEST_F(PipelineFixture, FingerprintSeparatesValuesAndOptions) {
  SympvlOptions mor;
  mor.max_order = 8;
  const RcNetwork base = fp::make_network(false);
  const ClusterFingerprint f0 = fp::print(base, mor);

  // A perturbed element value must change the key.
  EXPECT_NE(f0, fp::print(fp::make_network(false, 1.0 + 1e-12), mor));

  // Every payload-shaping option is part of the key.
  SympvlOptions other = mor;
  other.max_order = 12;
  EXPECT_NE(f0, fp::print(base, other));
  other = mor;
  other.deflation_tol = 1e-9;
  EXPECT_NE(f0, fp::print(base, other));
  EXPECT_NE(f0, fp::print(base, mor, /*certify=*/true));
}

// ---------------------------------------------------------------------------
// Model cache.

namespace {

std::shared_ptr<CachedReducedModel> dummy_payload(std::size_t bytes,
                                                  std::size_t order) {
  auto payload = std::make_shared<CachedReducedModel>();
  payload->model.t = DenseMatrix(order, order);
  payload->bytes = bytes;
  return payload;
}

ClusterFingerprint key_of(std::uint64_t n) {
  return ClusterFingerprint{n, n * 0x9e37u + 1};
}

}  // namespace

TEST_F(PipelineFixture, ModelCacheMissThenHit) {
  ModelCache cache(/*max_bytes=*/1 << 20, /*shard_count=*/4);
  EXPECT_EQ(cache.lookup(key_of(1)), nullptr);
  cache.insert(key_of(1), dummy_payload(100, 4));
  const auto hit = cache.lookup(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->model.order(), 4u);
  const ModelCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST_F(PipelineFixture, ModelCacheFirstInsertWins) {
  ModelCache cache(1 << 20, 1);
  cache.insert(key_of(7), dummy_payload(100, 4));
  cache.insert(key_of(7), dummy_payload(100, 6));  // racing duplicate
  const auto hit = cache.lookup(key_of(7));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->model.order(), 4u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST_F(PipelineFixture, ModelCacheEvictsLeastRecentlyUsed) {
  // Single shard, budget for two 100-byte payloads.
  ModelCache cache(/*max_bytes=*/200, /*shard_count=*/1);
  cache.insert(key_of(1), dummy_payload(100, 2));
  cache.insert(key_of(2), dummy_payload(100, 2));
  ASSERT_NE(cache.lookup(key_of(1)), nullptr);  // refresh 1; 2 is now LRU
  cache.insert(key_of(3), dummy_payload(100, 2));
  EXPECT_EQ(cache.lookup(key_of(2)), nullptr);  // evicted
  EXPECT_NE(cache.lookup(key_of(1)), nullptr);
  EXPECT_NE(cache.lookup(key_of(3)), nullptr);
  const ModelCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, 200u);
}

TEST_F(PipelineFixture, ModelCacheOversizedPayloadOccupiesShardAlone) {
  ModelCache cache(/*max_bytes=*/64, /*shard_count=*/1);
  cache.insert(key_of(1), dummy_payload(1000, 2));  // over budget by itself
  // The newest entry always stays: an oversized payload must not thrash.
  EXPECT_NE(cache.lookup(key_of(1)), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// ---------------------------------------------------------------------------
// Stage transitions.

TEST_F(PipelineFixture, StageTraceOfCleanVictimIsTheCanonicalPath) {
  const VerifierOptions options = fast_options();
  const std::vector<NetSummary> summaries =
      chip_net_summaries(*design_, *extractor_, *chars_);
  const PruneResult pruned = prune_couplings(summaries, options.prune);
  GlitchAnalyzer analyzer(*extractor_, *chars_);
  ChipVerifier verifier(*extractor_, *chars_);

  std::vector<std::string> trace;
  PipelineContext ctx;
  ctx.verifier = &verifier;
  ctx.extractor = extractor_;
  ctx.chars = chars_;
  ctx.analyzer = &analyzer;
  ctx.design = design_;
  ctx.summaries = &summaries;
  ctx.pruned = &pruned;
  ctx.options = &options;
  ctx.stage_trace = [&](std::size_t, PipelineStage s) {
    trace.push_back(pipeline_stage_name(s));
  };
  const VictimPipeline pipeline(ctx);

  bool checked = false;
  for (std::size_t v = 0; v < design_->nets.size() && !checked; ++v) {
    if (pruned.retained[v].empty()) continue;
    trace.clear();
    const auto rec = pipeline.run(v, /*shed=*/false);
    if (!rec || rec->screened ||
        rec->finding.status != FindingStatus::kAnalyzed)
      continue;
    // A clean rung-0 victim walks each stage exactly once: spec build,
    // screen pass-through, then one attempt (prepare/reduce/simulate),
    // the certify pass-through, and finalization in audit.
    const std::vector<std::string> expected = {
        "build-cluster", "noise-screen",     "build-cluster", "reduce",
        "simulate-reduced", "certify", "audit"};
    EXPECT_EQ(trace, expected);
    checked = true;
  }
  EXPECT_TRUE(checked) << "no cleanly analyzed victim found";
}

// ---------------------------------------------------------------------------
// End-to-end equivalences (the cache-correctness doctrine).

TEST_F(PipelineFixture, CachedRunBitIdenticalToFreshIncludingCertificates) {
  VerifierOptions fresh_opts = fast_options();
  fresh_opts.certify = true;  // cached certificates must replay verbatim
  VerifierOptions cached_opts = fresh_opts;
  cached_opts.model_cache_mb = 8.0;

  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport fresh = verifier.verify(*design_, fresh_opts);
  const VerificationReport cached = verifier.verify(*design_, cached_opts);

  // The tiled design repeats every row-0 pencil twice more, so the cache
  // must actually fire for this test to mean anything.
  EXPECT_GT(cached.model_cache_hits, 0u);
  EXPECT_GT(cached.model_cache_misses, 0u);
  expect_reports_equal(fresh, cached);
}

TEST_F(PipelineFixture, ParallelCacheSerialCacheAndSerialFreshAgree) {
  VerifierOptions serial_fresh = fast_options();
  VerifierOptions serial_cache = serial_fresh;
  serial_cache.model_cache_mb = 8.0;
  VerifierOptions parallel_cache = serial_cache;
  parallel_cache.threads = 4;

  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport a = verifier.verify(*design_, serial_fresh);
  const VerificationReport b = verifier.verify(*design_, serial_cache);
  const VerificationReport c = verifier.verify(*design_, parallel_cache);
  EXPECT_GT(b.model_cache_hits, 0u);
  EXPECT_GT(c.model_cache_hits, 0u);
  expect_reports_equal(a, b);
  expect_reports_equal(a, c);
}

TEST_F(PipelineFixture, CacheComposesWithJournalResume) {
  VerifierOptions options = fast_options();
  options.model_cache_mb = 8.0;
  options.journal_path = temp_path("pipeline_cache_journal.xtvj");
  std::remove(options.journal_path.c_str());

  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport full = verifier.verify(*design_, options);

  // Resume against the complete journal: every victim merges from disk,
  // and the merged report reproduces the cached run bit-exactly.
  VerifierOptions resume_opts = options;
  resume_opts.resume = true;
  const VerificationReport resumed = verifier.verify(*design_, resume_opts);
  expect_reports_equal(full, resumed);
  EXPECT_EQ(resumed.model_cache_hits, 0u);  // nothing re-analyzed

  // model_cache_mb is result-affecting (hits skip Krylov memory charges
  // under a budget), so the journal's options hash must cover it: a
  // resume under a different cache budget is refused, not merged.
  VerifierOptions mismatched = resume_opts;
  mismatched.model_cache_mb = 0.0;
  EXPECT_THROW(verifier.verify(*design_, mismatched), NumericalError);
  std::remove(options.journal_path.c_str());
}

TEST_F(PipelineFixture, OptionsHashCoversModelCacheBudget) {
  VerifierOptions a = fast_options();
  VerifierOptions b = a;
  b.model_cache_mb = 64.0;
  EXPECT_NE(options_result_hash(a), options_result_hash(b));
  // The reduced transient's step tolerance moves every peak.
  b = a;
  b.glitch.lte_vtol = 0.0;
  EXPECT_NE(options_result_hash(a), options_result_hash(b));
}

TEST_F(PipelineFixture, AdaptiveStepAgreesWithAFineFixedStep) {
  // perfbench's reference design (chipgen's default seed, 150 nets) under
  // chip_audit's default options, against a fixed step of dt/4.
  DspChipOptions chip_opt;
  chip_opt.net_count = 150;
  const ChipDesign design = generate_dsp_chip(*lib_, chip_opt);
  VerifierOptions adaptive;
  adaptive.model_cache_mb = 64.0;
  ASSERT_GT(adaptive.glitch.lte_vtol, 0.0);
  VerifierOptions fine = adaptive;
  fine.glitch.lte_vtol = 0.0;
  fine.glitch.dt = adaptive.glitch.dt / 4.0;
  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport a = verifier.verify(design, adaptive);
  const VerificationReport f = verifier.verify(design, fine);

  ASSERT_EQ(a.findings.size(), f.findings.size());
  const double threshold = adaptive.glitch_threshold;
  std::size_t compared = 0;
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    const VictimFinding& x = a.findings[i];
    const VictimFinding& y = f.findings[i];
    SCOPED_TRACE("net " + std::to_string(y.net));
    ASSERT_EQ(x.net, y.net);
    EXPECT_EQ(x.status, y.status);
    if (y.peak_fraction > 0.10) {
      ++compared;
      EXPECT_NEAR(x.peak, y.peak, 0.01 * std::fabs(y.peak));
    }
    // A violation may flip only on a peak within 1% of the threshold.
    if (x.violation != y.violation) {
      EXPECT_NEAR(y.peak_fraction, threshold, 0.01 * threshold);
    }
  }
  EXPECT_GT(compared, 10u);
}

TEST_F(PipelineFixture, VerifyBoundsMatrixAllocationsPerVictim) {
  // A victim builds its reduction and transient matrices once: this
  // fixture makes 12 DenseMatrix allocations per eligible victim (756 for
  // 63). A matrix per reduced step or Newton iteration would make
  // hundreds, so twice today's count is the bound.
  constexpr std::size_t kMaxPerVictim = 24;
  workspace::reset_stats();
  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport report = verifier.verify(*design_, fast_options());
  ASSERT_GT(report.victims_eligible, 0u);
  EXPECT_LE(workspace::stats().acquires,
            kMaxPerVictim * report.victims_eligible);
}

// ---------------------------------------------------------------------------
// Row replication (chipgen).

TEST_F(PipelineFixture, ReplicatedRowsTileTheBaseRow) {
  DspChipOptions base_opt;
  base_opt.net_count = 30;
  base_opt.tracks = 3;
  base_opt.bus_count = 0;
  const ChipDesign base = generate_dsp_chip(*lib_, base_opt);

  DspChipOptions tiled_opt = base_opt;
  tiled_opt.net_count = 90;
  tiled_opt.tracks = 9;
  tiled_opt.replicate_rows = 3;
  const ChipDesign tiled = generate_dsp_chip(*lib_, tiled_opt);

  ASSERT_EQ(tiled.nets.size(), 3 * base.nets.size());
  ASSERT_EQ(tiled.couplings.size(), 3 * base.couplings.size());
  const std::size_t n0 = base.nets.size();
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t i = 0; i < n0; ++i) {
      const ChipNet& src = base.nets[i];
      const ChipNet& dst = tiled.nets[r * n0 + i];
      EXPECT_EQ(dst.id, src.id + r * n0);
      EXPECT_EQ(dst.route.length, src.route.length);
      EXPECT_EQ(dst.driver_cell, src.driver_cell);
      EXPECT_EQ(dst.receiver_cap, src.receiver_cap);
    }
  }
  // Rows must be electrically independent: no coupling crosses rows.
  for (const ChipCoupling& c : tiled.couplings)
    EXPECT_EQ(c.a / n0, c.b / n0) << "coupling spans rows";
}

}  // namespace
}  // namespace xtv
