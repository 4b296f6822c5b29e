// Tests for the a-posteriori MOR accuracy certification layer (DESIGN.md
// §10): the shifted-pencil exact solves, the certificate verdict on RC
// ladders (pass at sufficient order, fail at starved order, converge under
// escalation), the verifier's upward escalation ladder with kCertified /
// kAccuracyBound statuses, the victim-keyed SPICE cross-audit, and the v2
// journal fields.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "chipgen/dsp_chip.h"
#include "core/journal.h"
#include "core/verifier.h"
#include "linalg/dense_lu.h"
#include "linalg/shifted_solver.h"
#include "linalg/sym_eigen.h"
#include "mor/certify.h"
#include "mor/sympvl.h"
#include "netlist/rc_network.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace xtv {
namespace {

// RC ladder: `stages` sections of series R and shunt C, one driven port.
RcNetwork make_ladder(int stages, double r = 50.0, double c = 5e-15,
                      double port_g = 1e-3) {
  RcNetwork net;
  int prev = net.add_node("in");
  net.add_port(prev);
  net.stamp_port_conductance(0, port_g);
  for (int i = 0; i < stages; ++i) {
    const int next = net.add_node();
    net.add_resistor(prev, next, r);
    net.add_capacitor(next, RcNetwork::kGround, c);
    prev = next;
  }
  return net;
}

// ---------------------------------------------------------------------------
// Shifted-pencil exact transfer evaluation (the certificate's probes).

TEST(ShiftedSolver, MatchesDenseSolveAcrossShifts) {
  RcNetwork net = make_ladder(10);
  const DenseMatrix g = net.g_matrix();
  const DenseMatrix c = net.c_matrix();
  const DenseMatrix b = net.b_matrix();
  ShiftedSparseSolver solver(net.g_sparse(), net.c_sparse());
  const std::size_t n = g.rows();
  for (double s : {1e6, 1e8, 1e10, 1e12}) {
    DenseMatrix gsys(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) gsys(i, j) = g(i, j) + s * c(i, j);
    const DenseMatrix dense = matmul_at_b(b, DenseLu(gsys).solve(b));
    const DenseMatrix sparse = solver.transfer(s, b);
    EXPECT_LT(sparse.max_abs_diff(dense),
              1e-10 * (dense.frobenius_norm() + 1e-300))
        << "s=" << s;
  }
}

TEST(ShiftedSolver, SparseStampsMatchDenseBuilders) {
  RcNetwork net = make_ladder(7);
  const DenseMatrix g = net.g_matrix();
  const DenseMatrix c = net.c_matrix();
  const DenseMatrix gs = net.g_sparse().to_dense();
  const DenseMatrix cs = net.c_sparse().to_dense();
  EXPECT_LT(gs.max_abs_diff(g), 1e-18);
  EXPECT_LT(cs.max_abs_diff(c), 1e-30);
}

// ---------------------------------------------------------------------------
// The certificate itself.

TEST(Certify, PassesAtSufficientOrder) {
  RcNetwork net = make_ladder(12);
  SympvlOptions opt;
  opt.max_order = 12;
  ReducedModel model = sympvl_reduce(net, /*couple=*/true, opt);
  const Certificate cert = certify_reduced_model(net, model);
  EXPECT_TRUE(cert.passivity_ok);
  EXPECT_TRUE(cert.probe_error.empty());
  EXPECT_EQ(cert.order_used, model.order());
  EXPECT_EQ(cert.freqs.size(), 5u);
  EXPECT_LT(cert.max_rel_err, 1e-6);
  EXPECT_TRUE(cert.pass(0.02));
}

TEST(Certify, FailsAtStarvedOrder) {
  // 40 stages with q = 1: one block moment cannot capture the ladder's
  // high-frequency roll-off, and the certificate must say so.
  RcNetwork net = make_ladder(40);
  SympvlOptions opt;
  opt.max_order = 1;
  ReducedModel model = sympvl_reduce(net, true, opt);
  const Certificate cert = certify_reduced_model(net, model);
  EXPECT_TRUE(cert.probe_error.empty());
  EXPECT_GT(cert.max_rel_err, 0.02);
  EXPECT_FALSE(cert.pass(0.02));
}

TEST(Certify, EscalationConvergesOnLadder) {
  // The verifier's upward ladder in miniature: raise q until the
  // certificate passes; it must pass strictly before q reaches n.
  RcNetwork net = make_ladder(30);
  std::size_t q = 1;
  Certificate cert;
  std::size_t escalations = 0;
  for (;;) {
    SympvlOptions opt;
    opt.max_order = q;
    cert = certify_reduced_model(net, sympvl_reduce(net, true, opt));
    if (cert.pass(0.02)) break;
    ASSERT_LT(q, 31u) << "never certified; rel err " << cert.max_rel_err;
    q += 4;
    ++escalations;
  }
  EXPECT_GE(escalations, 1u);  // q = 1 must NOT have been enough
  EXPECT_LT(cert.order_used, 31u);
  EXPECT_TRUE(cert.passivity_ok);
}

TEST(Certify, CustomBandAndFreqCountAreHonored) {
  RcNetwork net = make_ladder(8);
  ReducedModel model = sympvl_reduce(net, true);
  CertifyOptions opt;
  opt.num_freqs = 9;
  opt.s_min = 1e9;
  opt.s_max = 1e11;
  const Certificate cert = certify_reduced_model(net, model, true, opt);
  ASSERT_EQ(cert.freqs.size(), 9u);
  EXPECT_DOUBLE_EQ(cert.freqs.front(), 1e9);
  EXPECT_NEAR(cert.freqs.back() / 1e11, 1.0, 1e-9);
  for (std::size_t i = 1; i < cert.freqs.size(); ++i)
    EXPECT_GT(cert.freqs[i], cert.freqs[i - 1]);
}

TEST(Certify, InjectedProbeFaultIsUncertifiableNotFatal) {
  RcNetwork net = make_ladder(6);
  ReducedModel model = sympvl_reduce(net, true);
  FaultInjector::instance().reset();
  FaultInjector::instance().arm(FaultSite::kCertifyProbe);
  const Certificate cert = certify_reduced_model(net, model);
  FaultInjector::instance().reset();
  EXPECT_FALSE(cert.probe_error.empty());
  EXPECT_FALSE(cert.pass(1e9));  // no tolerance rescues an unevaluated cert
  EXPECT_TRUE(std::isinf(cert.max_rel_err));
}

// ---------------------------------------------------------------------------
// sym_eigen's hard iteration cap (the certificate's passivity probe relies
// on eigenvalues that are actually converged).

TEST(SymEigenCap, RaisesTypedNoConvergenceInsteadOfSilentReturn) {
  // An indefinite matrix with strong off-diagonal coupling cannot reach
  // Frobenius tolerance in a single sweep; the cap must raise, not lie.
  const std::size_t n = 24;
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = 1.0 / (1.0 + static_cast<double>(i + j));
  try {
    sym_eigen(a, /*tol=*/1e-15, /*max_sweeps=*/1);
    FAIL() << "expected NumericalError(kNoConvergence)";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.code(), StatusCode::kNoConvergence);
  }
  // With the default budget the same matrix converges fine.
  EXPECT_NO_THROW(sym_eigen(a));
}

// ---------------------------------------------------------------------------
// Verifier integration: escalation ladder, statuses, audit, determinism.

const Technology kTech = Technology::default_250nm();

class CertifyVerifierFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new CellLibrary(kTech);
    CharacterizeOptions copt;
    copt.iv_grid = 11;
    chars_ = new CharacterizedLibrary(*lib_, copt);
    extractor_ = new Extractor(kTech);
    DspChipOptions chip_opt;
    chip_opt.net_count = 80;
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

  static VerifierOptions certified_options() {
    VerifierOptions options;
    options.glitch.align_aggressors = false;
    options.glitch.tstop = 3e-9;
    options.certify = true;
    return options;
  }

  static void expect_certified_accounting(const VerificationReport& r) {
    EXPECT_EQ(r.victims_eligible, r.victims_analyzed + r.victims_screened_out +
                                      r.victims_fallback + r.victims_failed);
    EXPECT_LE(r.victims_certified, r.victims_analyzed);
    EXPECT_LE(r.victims_accuracy_bound, r.victims_fallback);
    std::size_t certified = 0, accuracy_bound = 0, escalated = 0, raises = 0;
    std::size_t audited = 0, audit_failures = 0;
    for (const auto& f : r.findings) {
      if (f.status == FindingStatus::kCertified) {
        ++certified;
        EXPECT_TRUE(f.certified) << "net " << f.net;
        EXPECT_LE(f.cert_max_rel_err, 0.02) << "net " << f.net;
      }
      if (f.status == FindingStatus::kAccuracyBound) {
        ++accuracy_bound;
        EXPECT_FALSE(f.certified) << "net " << f.net;
        EXPECT_FALSE(f.error.empty()) << "net " << f.net;
      }
      if (f.cert_order_escalations > 0) {
        ++escalated;
        raises += f.cert_order_escalations;
      }
      if (f.audited) {
        ++audited;
        if (!f.audit_pass) ++audit_failures;
      }
    }
    EXPECT_EQ(r.victims_certified, certified);
    EXPECT_EQ(r.victims_accuracy_bound, accuracy_bound);
    EXPECT_EQ(r.victims_escalated, escalated);
    EXPECT_EQ(r.order_escalations, raises);
    EXPECT_EQ(r.victims_audited, audited);
    EXPECT_EQ(r.audit_failures, audit_failures);
  }

  static CellLibrary* lib_;
  static CharacterizedLibrary* chars_;
  static Extractor* extractor_;
  static ChipDesign* design_;
};

CellLibrary* CertifyVerifierFixture::lib_ = nullptr;
CharacterizedLibrary* CertifyVerifierFixture::chars_ = nullptr;
Extractor* CertifyVerifierFixture::extractor_ = nullptr;
ChipDesign* CertifyVerifierFixture::design_ = nullptr;

TEST_F(CertifyVerifierFixture, EveryMorResultCarriesAPassingCertificate) {
  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport report =
      verifier.verify(*design_, certified_options());
  EXPECT_GT(report.victims_certified, 0u);
  for (const auto& f : report.findings) {
    // Under certification no finding may claim plain "analyzed": it is
    // either certified, escalated-then-certified, or conceded to a
    // bound/full-sim status.
    EXPECT_NE(f.status, FindingStatus::kAnalyzed) << "net " << f.net;
    EXPECT_NE(f.status, FindingStatus::kAnalyzedAfterRetry) << "net " << f.net;
  }
  expect_certified_accounting(report);
}

TEST_F(CertifyVerifierFixture, StarvedBaseOrderEscalatesThenCertifies) {
  VerifierOptions options = certified_options();
  options.glitch.mor.max_order = 1;  // starve rung 0 so certificates fail
  options.mor_order_step = 4;
  options.max_mor_order = 64;
  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport report = verifier.verify(*design_, options);
  // At least one synthetic cluster must demonstrably escalate and then
  // certify (the acceptance criterion of the escalation ladder).
  bool escalated_and_certified = false;
  for (const auto& f : report.findings)
    if (f.status == FindingStatus::kCertified && f.cert_order_escalations > 0)
      escalated_and_certified = true;
  EXPECT_TRUE(escalated_and_certified);
  EXPECT_GT(report.order_escalations, 0u);
  expect_certified_accounting(report);
}

TEST_F(CertifyVerifierFixture, OrderCeilingConcedesToAccuracyBound) {
  VerifierOptions options = certified_options();
  options.glitch.mor.max_order = 1;
  options.mor_order_step = 1;
  options.max_mor_order = 2;  // ladder is cut off before it can converge
  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport report = verifier.verify(*design_, options);
  EXPECT_GT(report.victims_accuracy_bound, 0u);
  for (const auto& f : report.findings) {
    if (f.status != FindingStatus::kAccuracyBound) continue;
    // Conservative semantics: the bound is reported, with the certificate
    // failure recorded as the typed error.
    EXPECT_EQ(f.error_code, StatusCode::kCertificationFailed) << "net " << f.net;
    EXPECT_GT(f.peak_fraction, 0.0) << "net " << f.net;
  }
  expect_certified_accounting(report);
}

TEST_F(CertifyVerifierFixture, AuditIsDeterministicAcrossThreadCounts) {
  VerifierOptions options = certified_options();
  options.audit_fraction = 0.5;
  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport serial = verifier.verify(*design_, options);
  options.threads = 4;
  const VerificationReport parallel = verifier.verify(*design_, options);

  EXPECT_GT(serial.victims_audited, 0u);
  ASSERT_EQ(serial.findings.size(), parallel.findings.size());
  for (std::size_t i = 0; i < serial.findings.size(); ++i) {
    const VictimFinding& a = serial.findings[i];
    const VictimFinding& b = parallel.findings[i];
    EXPECT_EQ(a.net, b.net);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.peak, b.peak);  // bitwise
    EXPECT_EQ(a.certified, b.certified);
    EXPECT_EQ(a.cert_max_rel_err, b.cert_max_rel_err);
    EXPECT_EQ(a.cert_order_escalations, b.cert_order_escalations);
    EXPECT_EQ(a.audited, b.audited) << "net " << a.net;
    EXPECT_EQ(a.audit_pass, b.audit_pass);
    EXPECT_EQ(a.audit_peak_err, b.audit_peak_err);
    EXPECT_EQ(a.audit_time_err, b.audit_time_err);
  }
  EXPECT_EQ(serial.victims_audited, parallel.victims_audited);
  EXPECT_EQ(serial.audit_failures, parallel.audit_failures);
  expect_certified_accounting(serial);
  expect_certified_accounting(parallel);
}

TEST_F(CertifyVerifierFixture, AuditFractionOneWithinTolerance) {
  VerifierOptions options = certified_options();
  options.audit_fraction = 1.0;
  ChipVerifier verifier(*extractor_, *chars_);
  const VerificationReport report = verifier.verify(*design_, options);
  ASSERT_GT(report.victims_audited, 0u);
  // The MOR engine with certified models must agree with golden SPICE on
  // every audited victim — this is the accuracy statement of the paper.
  EXPECT_EQ(report.audit_failures, 0u)
      << "worst peak delta " << report.audit_max_peak_err << " V, worst arrival delta "
      << report.audit_max_time_err << " s";
  expect_certified_accounting(report);
}

TEST_F(CertifyVerifierFixture, OptionsHashCoversCertificationKnobs) {
  VerifierOptions a = certified_options();
  VerifierOptions b = a;
  EXPECT_EQ(options_result_hash(a), options_result_hash(b));
  b.certify = false;
  EXPECT_NE(options_result_hash(a), options_result_hash(b));
  b = a;
  b.cert_rel_tol = 0.05;
  EXPECT_NE(options_result_hash(a), options_result_hash(b));
  b = a;
  b.max_mor_order = 32;
  EXPECT_NE(options_result_hash(a), options_result_hash(b));
  b = a;
  b.audit_fraction = 0.25;
  EXPECT_NE(options_result_hash(a), options_result_hash(b));
  b = a;
  b.audit_seed ^= 1;
  EXPECT_NE(options_result_hash(a), options_result_hash(b));
}

// ---------------------------------------------------------------------------
// Journal v2 round trip of the certification and audit fields.

TEST(JournalV2, CertificationFieldsRoundTripBitExactly) {
  JournalRecord rec;
  rec.finding.net = 17;
  rec.finding.status = FindingStatus::kCertified;
  rec.finding.certified = true;
  rec.finding.cert_max_rel_err = 3.25e-4;
  rec.finding.cert_order_escalations = 2;
  rec.finding.audited = true;
  rec.finding.audit_pass = true;
  rec.finding.audit_peak_err = 1.5e-3;
  rec.finding.audit_time_err = 2.75e-11;
  JournalRecord back;
  ASSERT_TRUE(journal_decode(journal_encode(rec), back));
  EXPECT_EQ(back.finding.status, FindingStatus::kCertified);
  EXPECT_TRUE(back.finding.certified);
  EXPECT_EQ(back.finding.cert_max_rel_err, rec.finding.cert_max_rel_err);
  EXPECT_EQ(back.finding.cert_order_escalations, 2u);
  EXPECT_TRUE(back.finding.audited);
  EXPECT_TRUE(back.finding.audit_pass);
  EXPECT_EQ(back.finding.audit_peak_err, rec.finding.audit_peak_err);
  EXPECT_EQ(back.finding.audit_time_err, rec.finding.audit_time_err);

  // kAccuracyBound and kCertificationFailed are valid on the wire; one
  // past them is not.
  rec.finding.status = FindingStatus::kAccuracyBound;
  rec.finding.error_code = StatusCode::kCertificationFailed;
  rec.finding.error = "accuracy certificate failed at order 2";
  ASSERT_TRUE(journal_decode(journal_encode(rec), back));
  EXPECT_EQ(back.finding.status, FindingStatus::kAccuracyBound);
  EXPECT_EQ(back.finding.error_code, StatusCode::kCertificationFailed);
}

// ---------------------------------------------------------------------------
// --fail-on support helpers.

TEST(FindingStatusParse, AcceptsBothSpellings) {
  FindingStatus s;
  ASSERT_TRUE(parse_finding_status("accuracy-bound", &s));
  EXPECT_EQ(s, FindingStatus::kAccuracyBound);
  ASSERT_TRUE(parse_finding_status("kAccuracyBound", &s));
  EXPECT_EQ(s, FindingStatus::kAccuracyBound);
  ASSERT_TRUE(parse_finding_status("certified", &s));
  EXPECT_EQ(s, FindingStatus::kCertified);
  ASSERT_TRUE(parse_finding_status("kFailed", &s));
  EXPECT_EQ(s, FindingStatus::kFailed);
  EXPECT_FALSE(parse_finding_status("not-a-status", &s));
  EXPECT_FALSE(parse_finding_status("", &s));
}

TEST(FindingStatusParse, SeverityOrdersCertifiedBestFailedWorst) {
  EXPECT_EQ(finding_status_severity(FindingStatus::kCertified), 0);
  EXPECT_LT(finding_status_severity(FindingStatus::kAnalyzed),
            finding_status_severity(FindingStatus::kFellBackToBound));
  EXPECT_LT(finding_status_severity(FindingStatus::kResourceBound),
            finding_status_severity(FindingStatus::kAccuracyBound));
  EXPECT_LT(finding_status_severity(FindingStatus::kAccuracyBound),
            finding_status_severity(FindingStatus::kFailed));
}

}  // namespace
}  // namespace xtv
