// Tests for the SyMPVL reduction: Padé moment matching, passivity,
// transfer-function accuracy, and reduced-vs-SPICE transient agreement —
// the properties the paper's Section 3 claims.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cells/driver_models.h"
#include "linalg/dense_lu.h"
#include "mor/reduced_sim.h"
#include "mor/sympvl.h"
#include "netlist/rc_network.h"
#include "spice/simulator.h"
#include "util/prng.h"
#include "util/units.h"
#include "util/workspace.h"

namespace xtv {
namespace {

// RC ladder: `stages` sections of series R and shunt C, driven at one port
// with a termination conductance.
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

// Two coupled RC lines (aggressor/victim) with ports at both drivers and
// both receivers.
RcNetwork make_coupled_pair(int stages = 6, double r = 40.0, double cg = 4e-15,
                            double cc = 6e-15) {
  RcNetwork net;
  std::vector<int> a(static_cast<std::size_t>(stages) + 1);
  std::vector<int> v(static_cast<std::size_t>(stages) + 1);
  for (int i = 0; i <= stages; ++i) {
    a[static_cast<std::size_t>(i)] = net.add_node("a" + std::to_string(i));
    v[static_cast<std::size_t>(i)] = net.add_node("v" + std::to_string(i));
  }
  for (int i = 0; i < stages; ++i) {
    net.add_resistor(a[static_cast<std::size_t>(i)], a[static_cast<std::size_t>(i) + 1], r);
    net.add_resistor(v[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(i) + 1], r);
  }
  for (int i = 1; i <= stages; ++i) {
    net.add_capacitor(a[static_cast<std::size_t>(i)], RcNetwork::kGround, cg);
    net.add_capacitor(v[static_cast<std::size_t>(i)], RcNetwork::kGround, cg);
    net.add_capacitor(a[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(i)], cc, true);
  }
  net.add_port(a[0]);  // port 0: aggressor driver
  net.add_port(v[0]);  // port 1: victim driver
  net.add_port(a[static_cast<std::size_t>(stages)]);  // port 2: aggressor sink
  net.add_port(v[static_cast<std::size_t>(stages)]);  // port 3: victim sink
  net.stamp_port_conductance(0, 1e-2);   // strong aggressor driver (100 ohm)
  net.stamp_port_conductance(1, 1e-3);   // weaker victim holder (1k)
  net.stamp_port_conductance(2, 1e-9);   // receiver gmin
  net.stamp_port_conductance(3, 1e-9);
  return net;
}

TEST(Sympvl, MomentZeroMatchesExactly) {
  RcNetwork net = make_ladder(8);
  const DenseMatrix g = net.g_matrix();
  const DenseMatrix c = net.c_matrix();
  const DenseMatrix b = net.b_matrix();
  ReducedModel m = sympvl_reduce(g, c, b);
  const DenseMatrix m0 = m.moment(0);
  const DenseMatrix e0 = exact_moment(g, c, b, 0);
  EXPECT_LT(m0.max_abs_diff(e0), 1e-9 * e0.frobenius_norm());
}

TEST(Sympvl, MatchesLeadingMomentsOfLadder) {
  RcNetwork net = make_ladder(12);
  const DenseMatrix g = net.g_matrix();
  const DenseMatrix c = net.c_matrix();
  const DenseMatrix b = net.b_matrix();
  SympvlOptions opt;
  opt.max_order = 6;  // single port: matches 2*6 moments in exact arithmetic
  ReducedModel m = sympvl_reduce(g, c, b, opt);
  for (unsigned k = 0; k < 8; ++k) {
    const double exact = exact_moment(g, c, b, k)(0, 0);
    const double reduced = m.moment(k)(0, 0);
    EXPECT_NEAR(reduced / exact, 1.0, 1e-6) << "moment k=" << k;
  }
}

TEST(Sympvl, MultiportMomentMatching) {
  RcNetwork net = make_coupled_pair();
  const DenseMatrix g = net.g_matrix();
  const DenseMatrix c = net.c_matrix();
  const DenseMatrix b = net.b_matrix();
  SympvlOptions opt;
  opt.max_order = 12;  // 4 ports: 3 block iterations -> >= 4 block moments
  ReducedModel m = sympvl_reduce(g, c, b, opt);
  for (unsigned k = 0; k < 4; ++k) {
    const DenseMatrix exact = exact_moment(g, c, b, k);
    const DenseMatrix red = m.moment(k);
    EXPECT_LT(red.max_abs_diff(exact), 1e-7 * (exact.frobenius_norm() + 1e-300))
        << "block moment k=" << k;
  }
}

TEST(Sympvl, ExactWhenOrderEqualsStateCount) {
  RcNetwork net = make_ladder(5);
  const DenseMatrix g = net.g_matrix();
  const DenseMatrix c = net.c_matrix();
  const DenseMatrix b = net.b_matrix();
  SympvlOptions opt;
  opt.max_order = 6;  // == node count
  ReducedModel m = sympvl_reduce(g, c, b, opt);
  // Transfer function must agree at many frequencies, not just moments.
  for (double s : {0.0, 1e6, 1e8, 1e9, 1e10, 1e11}) {
    const std::size_t n = g.rows();
    DenseMatrix gsys(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) gsys(i, j) = g(i, j) + s * c(i, j);
    // Original H(s) = B^T (G + sC)^{-1} B; reduced is rho^T(I+sT)^{-1}rho.
    DenseLu lu(gsys);
    const DenseMatrix horig = matmul_at_b(b, lu.solve(b));
    // The reduced variable change absorbs G: H_red(s) defined on the
    // transformed system equals the original exactly when no deflation
    // occurred and order == n.
    const DenseMatrix hred = m.transfer(s);
    EXPECT_LT(hred.max_abs_diff(horig), 1e-6 * (horig.frobenius_norm() + 1e-30))
        << "s=" << s;
  }
}

TEST(Sympvl, ReducedTransferConvergesWithOrder) {
  RcNetwork net = make_coupled_pair(10);
  const DenseMatrix g = net.g_matrix();
  const DenseMatrix c = net.c_matrix();
  const DenseMatrix b = net.b_matrix();
  const double s = 1e10;
  const std::size_t n = g.rows();
  DenseMatrix gsys(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) gsys(i, j) = g(i, j) + s * c(i, j);
  const DenseMatrix horig = matmul_at_b(b, DenseLu(gsys).solve(b));

  double prev_err = 1e300;
  for (std::size_t q : {4u, 8u, 16u}) {
    SympvlOptions opt;
    opt.max_order = q;
    const DenseMatrix hred = sympvl_reduce(g, c, b, opt).transfer(s);
    const double err = hred.max_abs_diff(horig) / (horig.frobenius_norm() + 1e-300);
    EXPECT_LT(err, prev_err * 1.5) << "order " << q;  // no blow-up
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-6);  // converged by order 16
}

// Property: passivity (T PSD) must hold for randomized RC clusters of any
// topology — the paper's headline guarantee.
class SympvlPassivity : public ::testing::TestWithParam<int> {};

TEST_P(SympvlPassivity, ReducedModelIsPassiveAndStable) {
  Prng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  RcNetwork net;
  const int n = rng.uniform_int(4, 40);
  std::vector<int> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back(net.add_node());
  // Random connected resistive tree + extra links.
  for (int i = 1; i < n; ++i)
    net.add_resistor(nodes[static_cast<std::size_t>(i)],
                     nodes[static_cast<std::size_t>(rng.uniform_int(0, i - 1))],
                     rng.log_uniform(10.0, 1e3));
  for (int e = 0; e < n / 3; ++e) {
    const int a = rng.uniform_int(0, n - 1);
    const int b = rng.uniform_int(0, n - 1);
    if (a != b)
      net.add_resistor(nodes[static_cast<std::size_t>(a)],
                       nodes[static_cast<std::size_t>(b)],
                       rng.log_uniform(10.0, 1e3));
  }
  for (int i = 0; i < n; ++i)
    net.add_capacitor(nodes[static_cast<std::size_t>(i)], RcNetwork::kGround,
                      rng.log_uniform(0.5e-15, 50e-15));
  for (int e = 0; e < n / 2; ++e) {
    const int a = rng.uniform_int(0, n - 1);
    const int b = rng.uniform_int(0, n - 1);
    if (a != b)
      net.add_capacitor(nodes[static_cast<std::size_t>(a)],
                        nodes[static_cast<std::size_t>(b)],
                        rng.log_uniform(0.5e-15, 20e-15), true);
  }
  const int num_ports = rng.uniform_int(1, std::min(4, n));
  for (int p = 0; p < num_ports; ++p) {
    net.add_port(nodes[static_cast<std::size_t>(p)]);
    net.stamp_port_conductance(static_cast<std::size_t>(p),
                               rng.log_uniform(1e-6, 1e-2));
  }

  ReducedModel m = sympvl_reduce(net);
  EXPECT_TRUE(m.is_passive(1e-9)) << "min eig " << m.min_t_eigenvalue();
  EXPECT_GT(m.order(), 0u);
  EXPECT_LE(m.order(), static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(RandomClusters, SympvlPassivity, ::testing::Range(0, 20));

TEST(Sympvl, RejectsSingularG) {
  RcNetwork net;
  const int a = net.add_node();
  const int b = net.add_node();
  net.add_capacitor(a, b, 1e-15, true);
  net.add_port(a);  // no resistive path anywhere: G singular
  EXPECT_THROW(sympvl_reduce(net), std::runtime_error);
}

// ------------------------------------------------- reduced transient sim

TEST(ReducedSim, LinearStepMatchesAnalyticRc) {
  // Single-node "ladder": port with conductance g and cap C driven by a
  // current step I: V -> I/g with time constant C/g.
  RcNetwork net;
  const int nd = net.add_node();
  net.add_capacitor(nd, RcNetwork::kGround, 1e-12);
  net.add_port(nd);
  net.stamp_port_conductance(0, 1e-3);

  ReducedModel model = sympvl_reduce(net);
  ReducedSimulator sim(model);
  sim.set_input(0, SourceWave::ramp(0.0, 1e-3, 0.0, 1e-12));  // ~step to 1 mA

  ReducedSimOptions opt;
  opt.tstop = 5e-9;
  opt.dt = 2e-12;
  const ReducedSimResult res = sim.run(opt);
  const Waveform& v = res.port_voltages[0];
  const double tau = 1e-12 / 1e-3;  // 1 ns
  for (double t : {1e-9, 2e-9, 4e-9}) {
    const double expect = 1.0 * (1.0 - std::exp(-t / tau));
    EXPECT_NEAR(v.at(t), expect, 0.01) << "t=" << t;
  }
}

TEST(ReducedSim, MatchesFullSpiceOnLinearCluster) {
  // Coupled pair, aggressor driven by a Thevenin ramp (conductance stamped
  // pre-reduction, source as current injection); victim held by its
  // conductance. Compare the victim-driver port waveform against the full
  // SPICE solve of the identical circuit.
  RcNetwork net = make_coupled_pair(8);
  ReducedModel model = sympvl_reduce(net);
  ReducedSimulator rsim(model);
  const double g_agg = net.port_conductance(0);
  // Thevenin source 0->3V ramp through R = 1/g_agg: inject I = V(t)*g.
  rsim.set_input(0, SourceWave::pwl({{0.0, 0.0},
                                     {0.2e-9, 0.0},
                                     {0.35e-9, 3.0 * g_agg}}));
  ReducedSimOptions ropt;
  ropt.tstop = 3e-9;
  ropt.dt = 1e-12;
  const ReducedSimResult rres = rsim.run(ropt);

  // Full circuit: export network, add the Thevenin source explicitly.
  Circuit ckt;
  const int agg_pin = ckt.add_node("agg");
  const int vic_pin = ckt.add_node("vic");
  const int asink = ckt.add_node("asink");
  const int vsink = ckt.add_node("vsink");
  // Export WITHOUT the port conductances for port 0 (we model it as a
  // Thevenin source) — simpler: export all conductances as resistors to
  // ground and drive port 0 with the equivalent Norton current.
  net.export_to(ckt, {agg_pin, vic_pin, asink, vsink});
  ckt.add_isource(Circuit::ground(), agg_pin,
                  SourceWave::pwl({{0.0, 0.0},
                                   {0.2e-9, 0.0},
                                   {0.35e-9, 3.0 * g_agg}}));
  Simulator spice(ckt);
  TransientOptions sopt;
  sopt.tstop = 3e-9;
  sopt.dt = 1e-12;
  const TransientResult sres = spice.transient(sopt, {vic_pin, agg_pin});

  // Victim glitch peaks must agree closely (this is the Figure-3 claim:
  // sub-1% error for linear drive).
  const double peak_red = rres.port_voltages[1].peak_deviation();
  const double peak_spice = sres.probes[0].peak_deviation();
  ASSERT_GT(std::fabs(peak_spice), 0.01);  // a real glitch exists
  EXPECT_NEAR(peak_red / peak_spice, 1.0, 0.02);
  // And the whole waveform tracks.
  EXPECT_LT(rres.port_voltages[1].max_abs_error(sres.probes[0]), 0.02);
  EXPECT_LT(rres.port_voltages[0].max_abs_error(sres.probes[1]), 0.05);
}

// Nonlinear clamp: current into the node pulls toward v0 with conductance
// that stiffens with distance (a crude nonlinear holder).
class CubicClamp final : public OnePortDevice {
 public:
  CubicClamp(double v0, double g1, double g3) : v0_(v0), g1_(g1), g3_(g3) {}
  double current(double v, double) const override {
    const double e = v0_ - v;
    return g1_ * e + g3_ * e * e * e;
  }
  double conductance(double v, double) const override {
    const double e = v0_ - v;
    return -(g1_ + 3.0 * g3_ * e * e);
  }

 private:
  double v0_, g1_, g3_;
};

TEST(ReducedSim, NonlinearTerminationMatchesSpice) {
  RcNetwork net = make_coupled_pair(6);
  ReducedModel model = sympvl_reduce(net);
  ReducedSimulator rsim(model);
  const double g_agg = net.port_conductance(0);
  const auto clamp = std::make_shared<CubicClamp>(0.0, 5e-4, 2e-3);
  rsim.set_input(0, SourceWave::pwl({{0.0, 0.0},
                                     {0.2e-9, 0.0},
                                     {0.3e-9, 3.0 * g_agg}}));
  rsim.set_termination(1, clamp);
  ReducedSimOptions ropt;
  ropt.tstop = 2e-9;
  ropt.dt = 1e-12;
  const ReducedSimResult rres = rsim.run(ropt);

  Circuit ckt;
  const int agg_pin = ckt.add_node();
  const int vic_pin = ckt.add_node();
  const int asink = ckt.add_node();
  const int vsink = ckt.add_node();
  net.export_to(ckt, {agg_pin, vic_pin, asink, vsink});
  ckt.add_isource(Circuit::ground(), agg_pin,
                  SourceWave::pwl({{0.0, 0.0},
                                   {0.2e-9, 0.0},
                                   {0.3e-9, 3.0 * g_agg}}));
  ckt.add_termination(vic_pin, clamp);
  Simulator spice(ckt);
  TransientOptions sopt;
  sopt.tstop = 2e-9;
  sopt.dt = 1e-12;
  const TransientResult sres = spice.transient(sopt, {vic_pin});

  const double peak_red = rres.port_voltages[1].peak_deviation();
  const double peak_spice = sres.probes[0].peak_deviation();
  ASSERT_GT(std::fabs(peak_spice), 0.01);
  EXPECT_NEAR(peak_red / peak_spice, 1.0, 0.03);
  EXPECT_LT(rres.port_voltages[1].max_abs_error(sres.probes[0]), 0.02);
}

TEST(ReducedSim, DcFixedPointWithClamp) {
  RcNetwork net = make_ladder(4, 50.0, 5e-15, 1e-3);
  ReducedModel model = sympvl_reduce(net);
  ReducedSimulator sim(model);
  // Clamp pulls toward 2V with 1 mS against the 1 mS port holder: expect 1V.
  // run() starts from the DC fixed point, so its t = 0 sample is it.
  sim.set_termination(0, std::make_shared<CubicClamp>(2.0, 1e-3, 0.0));
  ReducedSimOptions opt;
  opt.tstop = 1e-11;
  opt.dt = 1e-12;
  const ReducedSimResult res = sim.run(opt);
  EXPECT_EQ(res.port_voltages[0].time(0), 0.0);
  EXPECT_NEAR(res.port_voltages[0].first_value(), 1.0, 1e-5);
}

TEST(ReducedSim, NewtonLoopMakesNoWorkspaceAcquires) {
  // The Woodbury solve runs on reused scratch: a nonlinear run's arena
  // traffic must not grow with the step count (one m x m matrix per
  // Newton iteration would make 2 * tstop cost twice the acquires).
  RcNetwork net = make_coupled_pair(6);
  ReducedSimulator sim(sympvl_reduce(net));
  sim.set_input(0, SourceWave::ramp(0.0, 3e-2, 0.1e-9, 0.1e-9));
  sim.set_termination(1, std::make_shared<CubicClamp>(0.0, 5e-4, 2e-3));
  auto acquires_for = [&](double tstop) {
    ReducedSimOptions opt;
    opt.tstop = tstop;
    opt.dt = 1e-12;
    workspace::reset_stats();
    const ReducedSimResult res = sim.run(opt);
    EXPECT_GT(res.newton_iterations, res.steps);
    return workspace::stats().acquires;
  };
  const std::size_t single = acquires_for(0.5e-9);
  EXPECT_EQ(acquires_for(1e-9), single);
}

TEST(ReducedSim, RejectsBadPortIndices) {
  RcNetwork net = make_ladder(3);
  ReducedSimulator sim(sympvl_reduce(net));
  EXPECT_THROW(sim.set_input(5, SourceWave::dc(0.0)), std::runtime_error);
  EXPECT_THROW(sim.set_termination(5, std::make_shared<CubicClamp>(0, 1e-3, 0)),
               std::runtime_error);
}

TEST(ReducedSim, BackwardEulerAlsoConverges) {
  RcNetwork net = make_coupled_pair(5);
  ReducedSimulator sim(sympvl_reduce(net));
  sim.set_input(0, SourceWave::ramp(0.0, 3e-2, 0.1e-9, 0.1e-9));
  ReducedSimOptions opt;
  opt.tstop = 2e-9;
  opt.dt = 1e-12;
  opt.trapezoidal = false;
  const ReducedSimResult res = sim.run(opt);
  EXPECT_EQ(res.port_voltages[0].size(), res.steps + 1);
  EXPECT_GT(res.port_voltages[0].last_value(), 0.0);
}

// An inverter-like quasi-static surface: the output is pulled toward
// 3 V - vin through 1 mS.
std::shared_ptr<const CellModel> toy_inverter_model() {
  auto model = std::make_shared<CellModel>();
  const std::vector<double> vin = {0.0, 3.0};
  const std::vector<double> vout = {0.0, 3.0};
  std::vector<double> z;  // z[i * vout.size() + j]: current at (vin_i, vout_j)
  for (const double a : vin)
    for (const double b : vout) z.push_back(1e-3 * ((3.0 - a) - b));
  model->iv_surface = Table2D(vin, vout, z);
  return model;
}

TEST(ReducedSim, AdaptiveStepLandsOnEveryDriveCorner) {
  RcNetwork net = make_coupled_pair(6);
  ReducedSimulator sim(sympvl_reduce(net));
  const SourceWave input = SourceWave::ramp(0.0, 3e-2, 0.3e-9, 0.1e-9);
  // A warped switching driver: its corners are those of the warped input
  // (1.10 and 1.40 ns), not of the ramp it was given (1.05 and 1.25 ns).
  const auto driver = std::make_shared<NonlinearTableDriver>(
      toy_inverter_model(), SourceWave::ramp(0.0, 3.0, 1.05e-9, 0.2e-9),
      CellModel::Warp{0.1e-9, 1.5});
  sim.set_input(0, input);
  sim.set_termination(1, driver);
  ReducedSimOptions opt;
  opt.tstop = 4e-9;
  opt.dt = 2e-12;
  opt.lte_vtol = 1e-3;
  const ReducedSimResult res = sim.run(opt);

  std::vector<double> corners;
  input.append_corners(corners);
  driver->append_corners(corners);
  const std::vector<double>& times = res.port_voltages[1].times();
  std::size_t inside = 0;
  for (const double c : corners) {
    if (c <= 0.0 || c >= opt.tstop) continue;
    ++inside;
    EXPECT_NE(std::find(times.begin(), times.end(), c), times.end())
        << "corner " << c << " is not a sample time";
  }
  EXPECT_EQ(inside, 4u);
  EXPECT_EQ(times.back(), opt.tstop);
}

TEST(ReducedSim, AdaptiveStepCutsStepsOnAQuietTail) {
  RcNetwork net = make_coupled_pair(6);
  ReducedSimulator sim(sympvl_reduce(net));
  sim.set_input(0, SourceWave::ramp(0.0, 3e-2, 0.2e-9, 0.1e-9));
  sim.set_termination(1, std::make_shared<CubicClamp>(0.0, 5e-4, 2e-3));
  ReducedSimOptions opt;
  opt.tstop = 4e-9;
  opt.dt = 2e-12;
  const ReducedSimResult fixed = sim.run(opt);
  opt.lte_vtol = 1e-3;
  const ReducedSimResult adaptive = sim.run(opt);

  EXPECT_LE(adaptive.steps, 2000u);
  EXPECT_LE(4 * adaptive.steps, fixed.steps);
  const double peak = fixed.port_voltages[1].peak_deviation();
  ASSERT_GT(std::fabs(peak), 0.01);  // a real glitch exists
  EXPECT_NEAR(adaptive.port_voltages[1].peak_deviation(), peak, 0.01 * std::fabs(peak));
  EXPECT_LT(adaptive.port_voltages[1].max_abs_error(fixed.port_voltages[1]), 2e-3);
}

TEST(ReducedSim, ZeroToleranceIsTheFixedGrid) {
  RcNetwork net = make_coupled_pair(6);
  ReducedSimulator sim(sympvl_reduce(net));
  sim.set_input(0, SourceWave::ramp(0.0, 3e-2, 0.2e-9, 0.1e-9));
  sim.set_termination(1, std::make_shared<CubicClamp>(0.0, 5e-4, 2e-3));
  ReducedSimOptions opt;
  opt.tstop = 4e-9;
  opt.dt = 2e-12;
  const ReducedSimResult res = sim.run(opt);
  EXPECT_EQ(res.steps, 2000u);
  const Waveform& w = res.port_voltages[1];
  ASSERT_EQ(w.size(), 2001u);
  // The fixed step accumulates t += min(dt, tstop - t), bit for bit.
  double t = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k) {
    ASSERT_EQ(w.time(k), t) << "sample " << k;
    t += std::min(opt.dt, opt.tstop - t);
  }
}

}  // namespace
}  // namespace xtv
