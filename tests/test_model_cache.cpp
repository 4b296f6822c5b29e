// Reduced-model cache keys beyond the exact fingerprint (DESIGN.md §16):
// canonical (permutation/tolerance-invariant) keys, the canonical index
// and its counters, a tolerant hit reused only after its certificate
// re-passes against the requesting cluster's exact pencil, and the
// chipgen load skew that defeats exact keys across replicated rows.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chipgen/dsp_chip.h"
#include "core/verifier.h"
#include "mor/model_cache.h"
#include "netlist/rc_network.h"

namespace xtv {
namespace {

const Technology kTech = Technology::default_250nm();

// ---------------------------------------------------------------------------
// Canonical fingerprints.

/// Hand-built cluster pencil in the GlitchAnalyzer layout: victim net 0
/// (2 nodes) plus two aggressor nets (2 nodes each); net k owns matrix
/// rows 2k..2k+1 and B port columns 2k (driver), 2k+1 (receiver).
/// `swap_aggressors` enumerates the aggressors in the opposite order;
/// `skew` scales one aggressor's coupling cap.
struct Pencil {
  DenseMatrix g, c, b;
  std::vector<std::size_t> net_node_begin;
};

Pencil make_pencil(bool swap_aggressors, double skew = 0.0) {
  // Nodes are added in enumeration order so the per-net block layout
  // (rows 2k..2k+1 for cluster net k) matches the aggressor ordering.
  RcNetwork net;
  std::vector<int> vn, an, bn;
  auto two_nodes = [&](std::vector<int>& dst) {
    dst.push_back(net.add_node());
    dst.push_back(net.add_node());
  };
  two_nodes(vn);
  net.add_resistor(vn[0], vn[1], 50.0);
  net.add_capacitor(vn[1], RcNetwork::kGround, 3e-15);
  // Aggressor A (stronger coupling) and B, enumerated either way round.
  auto add_net = [&](std::vector<int>& dst, double r, double cc) {
    two_nodes(dst);
    net.add_resistor(dst[0], dst[1], r);
    net.add_capacitor(dst[1], RcNetwork::kGround, 2e-15);
    net.add_capacitor(dst[1], vn[1], cc, true);
  };
  if (!swap_aggressors) {
    add_net(an, 40.0, 6e-15 * (1.0 + skew));
    add_net(bn, 90.0, 2e-15);
  } else {
    add_net(bn, 90.0, 2e-15);
    add_net(an, 40.0, 6e-15 * (1.0 + skew));
  }
  // Driver + receiver port per net, in net order (the glitch-analyzer
  // cluster layout: net k owns B columns 2k and 2k+1).
  for (const std::vector<int>* nodes : {&vn, swap_aggressors ? &bn : &an,
                                        swap_aggressors ? &an : &bn}) {
    const int driver = net.add_port((*nodes)[0]);
    net.stamp_port_conductance(static_cast<std::size_t>(driver), 1e-3);
    const int receiver = net.add_port((*nodes)[1]);
    net.stamp_port_conductance(static_cast<std::size_t>(receiver), 1e-9);
  }
  Pencil p;
  p.g = net.g_matrix();
  p.c = net.c_matrix(true);
  p.b = net.b_matrix();
  p.net_node_begin = {0, 2, 4, 6};
  return p;
}

CanonicalKey canonical_of(const Pencil& p, double tol) {
  SympvlOptions mor;
  mor.max_order = 8;
  return canonical_cluster_fingerprint(p.g, p.c, p.b, p.net_node_begin, tol,
                                       mor, /*certify=*/false,
                                       /*cert_rel_tol=*/0.02, /*cert_freqs=*/5,
                                       /*s_min=*/1e8, /*s_max=*/1e11);
}

ClusterFingerprint exact_of(const Pencil& p) {
  SympvlOptions mor;
  mor.max_order = 8;
  return cluster_fingerprint(p.g, p.c, p.b, mor, /*certify=*/false,
                             /*cert_rel_tol=*/0.02, /*cert_freqs=*/5,
                             /*s_min=*/1e8, /*s_max=*/1e11);
}

TEST(CanonicalKey, InvariantToAggressorEnumerationOrder) {
  const Pencil fwd = make_pencil(false);
  const Pencil rev = make_pencil(true);
  // Reordering aggressors renumbers nodes: the exact fingerprints differ
  // by design...
  EXPECT_NE(exact_of(fwd), exact_of(rev));
  // ...but the canonical keys collide, and the recorded aggressor orders
  // compose into the permutation between the two enumerations.
  const CanonicalKey kf = canonical_of(fwd, 0.0);
  const CanonicalKey kr = canonical_of(rev, 0.0);
  EXPECT_EQ(kf.key, kr.key);
  ASSERT_EQ(kf.agg_order.size(), 2u);
  ASSERT_EQ(kr.agg_order.size(), 2u);
  // The same canonical slot names aggressor A in both pencils: net 1 in
  // the forward enumeration, net 2 in the reversed one.
  EXPECT_NE(kf.agg_order, kr.agg_order);
}

TEST(CanonicalKey, QuantizationAbsorbsSubToleranceSkewOnly) {
  const Pencil base = make_pencil(false);
  const Pencil tiny = make_pencil(false, /*skew=*/1e-9);
  const Pencil big = make_pencil(false, /*skew=*/0.2);
  // Exact keys see every bit.
  EXPECT_NE(exact_of(base), exact_of(tiny));
  // A sub-tolerance skew collides under quantization; a 20% skew cannot.
  EXPECT_EQ(canonical_of(base, 1e-6).key, canonical_of(tiny, 1e-6).key);
  EXPECT_NE(canonical_of(base, 1e-6).key, canonical_of(big, 1e-6).key);
  // tol <= 0 keeps exact bits (permutation invariance only).
  EXPECT_NE(canonical_of(base, 0.0).key, canonical_of(tiny, 0.0).key);
}

// ---------------------------------------------------------------------------
// Model-cache canonical index.

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

TEST(ModelCacheCanonical, LookupInsertAndVerdictCounters) {
  ModelCache cache(1 << 20, 4);
  EXPECT_FALSE(cache.canonical_lookup(key_of(1)).has_value());
  cache.canonical_insert(key_of(1), {2, 1}, dummy_payload(100, 4));
  const auto hit = cache.canonical_lookup(key_of(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->payload->model.order(), 4u);
  EXPECT_EQ(hit->agg_order, (std::vector<std::size_t>{2, 1}));
  // The caller reports the certificate verdict; the cache only counts.
  cache.count_canonical_hit();
  cache.count_canonical_cert_reject();
  const ModelCache::Stats s = cache.stats();
  EXPECT_EQ(s.canonical_hits, 1u);
  EXPECT_EQ(s.canonical_cert_rejects, 1u);
  EXPECT_EQ(s.canonical_entries, 1u);
}

TEST(ModelCacheCanonical, FirstInsertWins) {
  ModelCache cache(1 << 20, 1);
  cache.canonical_insert(key_of(7), {1, 2}, dummy_payload(100, 4));
  cache.canonical_insert(key_of(7), {2, 1}, dummy_payload(100, 6));
  const auto hit = cache.canonical_lookup(key_of(7));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->payload->model.order(), 4u);
  EXPECT_EQ(hit->agg_order, (std::vector<std::size_t>{1, 2}));
}

TEST(ModelCacheStats, SnapshotsStayConsistentUnderConcurrency) {
  // The stats race regression: writers hammer lookup/insert across
  // shards while a reader loops stats(). Snapshots must be internally
  // consistent (monotone counters, entries bounded by insertions) and
  // the final tally must balance exactly — per-shard counters under the
  // shard mutex, stats() locking all shards, make this TSan-clean.
  ModelCache cache(1 << 20, 4);
  constexpr int kWriters = 4;
  constexpr int kLookupsPerWriter = 4000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    ModelCache::Stats prev;
    while (!done.load(std::memory_order_acquire)) {
      const ModelCache::Stats s = cache.stats();
      EXPECT_GE(s.hits, prev.hits);
      EXPECT_GE(s.misses, prev.misses);
      EXPECT_GE(s.insertions, prev.insertions);
      EXPECT_LE(s.entries, s.insertions);
      prev = s;
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kLookupsPerWriter; ++i) {
        const auto key = key_of(static_cast<std::uint64_t>(
            (w * kLookupsPerWriter + i) % 64));
        if (cache.lookup(key) == nullptr)
          cache.insert(key, dummy_payload(64, 2));
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  const ModelCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::size_t>(kWriters) * kLookupsPerWriter);
}

// ---------------------------------------------------------------------------
// Verifier-level canonical reuse.

class CanonicalCacheFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new CellLibrary(kTech);
    CharacterizeOptions copt;
    copt.iv_grid = 11;
    chars_ = new CharacterizedLibrary(*lib_, copt);
    extractor_ = new Extractor(kTech);
  }
  static void TearDownTestSuite() {
    delete chars_;
    delete lib_;
    delete extractor_;
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

  /// Bitwise equality of every result field (test_pipeline.cpp's
  /// doctrine); cache statistics are allowed to differ, findings not.
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
};

CellLibrary* CanonicalCacheFixture::lib_ = nullptr;
CharacterizedLibrary* CanonicalCacheFixture::chars_ = nullptr;
Extractor* CanonicalCacheFixture::extractor_ = nullptr;

TEST_F(CanonicalCacheFixture, CanonicalCacheReusesAcrossSkewedReplicas) {
  // Replicated rows with a sub-tolerance receiver-load skew: exact keys
  // never re-match across rows, the canonical index does — and every
  // reuse passed the certificate gate against the requester's pencil.
  DspChipOptions chip_opt;
  chip_opt.net_count = 90;
  chip_opt.tracks = 9;
  chip_opt.replicate_rows = 3;
  chip_opt.cluster_repeat_skew = 1e-8;
  const ChipDesign skewed = generate_dsp_chip(*lib_, chip_opt);

  VerifierOptions exact_opts = fast_options();
  exact_opts.model_cache_mb = 8.0;
  VerifierOptions canon_opts = exact_opts;
  canon_opts.canonical_cache = true;
  canon_opts.canonical_cache_tol = 1e-6;

  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport exact = verifier.verify(skewed, exact_opts);
  const VerificationReport canon = verifier.verify(skewed, canon_opts);
  // The canonical index recovers certified reuse the exact keys lost to
  // the skew: its hit count must at least match (in practice dwarf) the
  // exact-only run's.
  EXPECT_GT(canon.canonical_hits, 0u);
  EXPECT_GE(canon.model_cache_hits + canon.canonical_hits,
            exact.model_cache_hits);
  EXPECT_EQ(canon.victims_analyzed, exact.victims_analyzed);
}

TEST_F(CanonicalCacheFixture, CanonicalCertRejectFallsBackToFreshReduce) {
  // An unpassably tight certificate tolerance turns every canonical
  // candidate into a reject: the run must count the rejects, reuse
  // nothing tolerantly, and produce findings bit-identical to a plain
  // exact-cache run — reject means miss, never a degraded result.
  DspChipOptions chip_opt;
  chip_opt.net_count = 90;
  chip_opt.tracks = 9;
  chip_opt.replicate_rows = 3;
  chip_opt.cluster_repeat_skew = 1e-8;
  const ChipDesign skewed = generate_dsp_chip(*lib_, chip_opt);

  VerifierOptions exact_opts = fast_options();
  exact_opts.model_cache_mb = 8.0;
  exact_opts.cert_rel_tol = 1e-15;  // nothing certifies this tightly
  VerifierOptions canon_opts = exact_opts;
  canon_opts.canonical_cache = true;
  canon_opts.canonical_cache_tol = 1e-6;

  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport exact = verifier.verify(skewed, exact_opts);
  const VerificationReport canon = verifier.verify(skewed, canon_opts);
  EXPECT_GT(canon.canonical_cert_rejects, 0u);
  EXPECT_EQ(canon.canonical_hits, 0u);
  expect_reports_equal(exact, canon);
}

TEST_F(CanonicalCacheFixture, OptionsHashCoversCanonicalKnobs) {
  VerifierOptions a = fast_options();
  VerifierOptions b = a;
  b.canonical_cache = true;
  EXPECT_NE(options_result_hash(a), options_result_hash(b));
  VerifierOptions c = b;
  c.canonical_cache_tol = 1e-3;
  EXPECT_NE(options_result_hash(b), options_result_hash(c));
}

// ---------------------------------------------------------------------------
// chipgen skew.

TEST(ClusterRepeatSkew, DeterministicBoundedAndOffByDefault) {
  const Technology tech = Technology::default_250nm();
  CellLibrary lib(tech);
  DspChipOptions opt;
  opt.net_count = 60;
  opt.tracks = 6;
  opt.bus_count = 0;
  opt.replicate_rows = 2;
  const ChipDesign plain = generate_dsp_chip(lib, opt);

  DspChipOptions skewed_opt = opt;
  skewed_opt.cluster_repeat_skew = 0.05;
  const ChipDesign s1 = generate_dsp_chip(lib, skewed_opt);
  const ChipDesign s2 = generate_dsp_chip(lib, skewed_opt);

  ASSERT_EQ(s1.nets.size(), plain.nets.size());
  bool any_differs = false;
  for (std::size_t i = 0; i < s1.nets.size(); ++i) {
    // Deterministic in the seed: two generations agree bitwise.
    EXPECT_EQ(s1.nets[i].receiver_cap, s2.nets[i].receiver_cap);
    // Bounded multiplicative jitter around the unskewed load.
    const double ratio = s1.nets[i].receiver_cap / plain.nets[i].receiver_cap;
    EXPECT_GE(ratio, 1.0 - skewed_opt.cluster_repeat_skew);
    EXPECT_LE(ratio, 1.0 + skewed_opt.cluster_repeat_skew);
    if (s1.nets[i].receiver_cap != plain.nets[i].receiver_cap)
      any_differs = true;
  }
  EXPECT_TRUE(any_differs);

  // Replica rows are no longer bit-identical to row 0 under skew.
  const std::size_t n0 = plain.nets.size() / 2;
  bool rows_differ = false;
  for (std::size_t i = 0; i < n0; ++i)
    if (s1.nets[i].receiver_cap != s1.nets[n0 + i].receiver_cap)
      rows_differ = true;
  EXPECT_TRUE(rows_differ);
}

}  // namespace
}  // namespace xtv
