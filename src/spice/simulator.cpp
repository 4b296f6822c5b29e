#include "spice/simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "linalg/ordering.h"
#include "spice/mosfet_eval.h"
#include "util/fault_injection.h"
#include "util/fp_guard.h"
#include "util/log.h"
#include "util/resource.h"
#include "util/status.h"
#include "util/step_control.h"

namespace xtv {

Simulator::Simulator(const Circuit& circuit, double gmin)
    : circuit_(circuit), gmin_(gmin) {
  // Collect explicit capacitors plus the fixed device capacitances of every
  // MOSFET (gate-source, gate-drain, drain junction).
  for (const auto& c : circuit_.capacitors())
    caps_.push_back({c.a, c.b, c.farads, 0.0});
  for (const auto& m : circuit_.mosfets()) {
    const MosfetCaps mc =
        mosfet_caps(circuit_.models()[static_cast<std::size_t>(m.model)], m.w, m.l);
    caps_.push_back({m.g, m.s, mc.cgs, 0.0});
    caps_.push_back({m.g, m.d, mc.cgd, 0.0});
    caps_.push_back({m.d, Circuit::ground(), mc.cdb, 0.0});
  }
  is_linear_ =
      circuit_.mosfets().empty() && circuit_.terminations().empty();
}

std::size_t Simulator::unknown_count() const {
  return static_cast<std::size_t>(circuit_.node_count() - 1) +
         circuit_.vsources().size();
}

void Simulator::assemble(const Vector& x, double t, double geq_scale,
                         IntegrationMethod method, const Vector& prev_x,
                         double gmin, TripletList& jac, Vector& rhs) const {
  const std::size_t nv = static_cast<std::size_t>(circuit_.node_count() - 1);

  auto stamp_conductance = [&](int a, int b, double g) {
    if (a != Circuit::ground()) {
      const auto ia = static_cast<std::size_t>(node_unknown(a));
      jac.add(ia, ia, g);
      if (b != Circuit::ground()) {
        const auto ib = static_cast<std::size_t>(node_unknown(b));
        jac.add(ia, ib, -g);
        jac.add(ib, ia, -g);
        jac.add(ib, ib, g);
      }
    } else if (b != Circuit::ground()) {
      const auto ib = static_cast<std::size_t>(node_unknown(b));
      jac.add(ib, ib, g);
    }
  };
  auto inject = [&](int node, double current) {
    if (node != Circuit::ground())
      rhs[static_cast<std::size_t>(node_unknown(node))] += current;
  };

  // Global gmin from every node to ground (diagonal regularization).
  for (std::size_t i = 0; i < nv; ++i) jac.add(i, i, gmin);

  for (const auto& r : circuit_.resistors())
    stamp_conductance(r.a, r.b, 1.0 / r.ohms);

  // Capacitor companion models. geq_scale = 1/dt (BE) or 2/dt (TRAP);
  // 0 means DC and the capacitor is open (pattern kept via a zero stamp).
  for (const auto& cap : caps_) {
    const double geq = geq_scale * cap.farads;
    stamp_conductance(cap.a, cap.b, geq);
    if (geq_scale != 0.0) {
      const double v_prev = (cap.a == Circuit::ground()
                                 ? 0.0
                                 : prev_x[static_cast<std::size_t>(node_unknown(cap.a))]) -
                            (cap.b == Circuit::ground()
                                 ? 0.0
                                 : prev_x[static_cast<std::size_t>(node_unknown(cap.b))]);
      double ieq = geq * v_prev;
      if (method == IntegrationMethod::kTrapezoidal) ieq += cap.i_prev;
      // Branch current a->b of the companion: geq * v_ab - ieq. KCL: the
      // history term enters as an injection into a (and out of b).
      inject(cap.a, ieq);
      inject(cap.b, -ieq);
    }
  }

  // Voltage sources: branch-current unknowns.
  for (std::size_t k = 0; k < circuit_.vsources().size(); ++k) {
    const auto& v = circuit_.vsources()[k];
    const std::size_t cur = nv + k;
    if (v.pos != Circuit::ground()) {
      const auto ip = static_cast<std::size_t>(node_unknown(v.pos));
      jac.add(ip, cur, 1.0);
      jac.add(cur, ip, 1.0);
    }
    if (v.neg != Circuit::ground()) {
      const auto in = static_cast<std::size_t>(node_unknown(v.neg));
      jac.add(in, cur, -1.0);
      jac.add(cur, in, -1.0);
    }
    rhs[cur] += v.wave.value(t);
  }

  for (const auto& i : circuit_.isources()) {
    const double cur = i.wave.value(t);
    inject(i.into, cur);
    inject(i.from, -cur);
  }

  // MOSFETs: linearized channel around the trial point.
  for (const auto& m : circuit_.mosfets()) {
    const double vd = voltage(x, m.d);
    const double vg = voltage(x, m.g);
    const double vs = voltage(x, m.s);
    const MosfetOp op = eval_mosfet(
        circuit_.models()[static_cast<std::size_t>(m.model)], m.w, m.l, vd, vg, vs);

    // Channel current flows d -> s:  i = ids0 + gm*(vgs-vgs0) + gds*(vds-vds0).
    const double vgs = vg - vs;
    const double vds = vd - vs;
    const double ieq = op.ids - op.gm * vgs - op.gds * vds;

    auto add = [&](int row_node, int col_node, double val) {
      if (row_node == Circuit::ground() || col_node == Circuit::ground()) return;
      jac.add(static_cast<std::size_t>(node_unknown(row_node)),
              static_cast<std::size_t>(node_unknown(col_node)), val);
    };
    // Row d: +i; Row s: -i.
    add(m.d, m.d, op.gds);
    add(m.d, m.g, op.gm);
    add(m.d, m.s, -(op.gm + op.gds));
    add(m.s, m.d, -op.gds);
    add(m.s, m.g, -op.gm);
    add(m.s, m.s, op.gm + op.gds);
    inject(m.d, -ieq);
    inject(m.s, ieq);
    // gmin across the channel keeps cutoff devices from floating nodes.
    stamp_conductance(m.d, m.s, gmin);
  }

  // One-port nonlinear terminations: current INTO the node.
  for (const auto& term : circuit_.terminations()) {
    const double v = voltage(x, term.node);
    const double i0 = term.device->current(v, t);
    const double g = term.device->conductance(v, t);
    if (term.node == Circuit::ground()) continue;
    const auto in = static_cast<std::size_t>(node_unknown(term.node));
    jac.add(in, in, -g);
    rhs[in] += i0 - g * v;
  }
}

bool Simulator::newton_solve(Vector& x, double t, double geq_scale,
                             IntegrationMethod method, const Vector& prev_x,
                             double gmin, const TransientOptions& options,
                             std::size_t& iterations) {
  const std::size_t n = unknown_count();
  const std::size_t nv = static_cast<std::size_t>(circuit_.node_count() - 1);

  // Checked only on the converged path: gmin stepping and damping recover
  // transient overflow on purpose, but converged-with-FP-evidence is a
  // silently poisoned operating point.
  FpKernelGuard fp("spice_newton");
  for (int iter = 0; iter < options.max_newton; ++iter) {
    poll_cancel(options.cancel, "Simulator");
    ++iterations;
    fp.rearm();
    TripletList jac(n, n);
    Vector rhs(n, 0.0);
    assemble(x, t, geq_scale, method, prev_x, gmin, jac, rhs);

    // Linear circuits: the matrix depends only on (geq_scale, gmin), so one
    // factorization serves every time point at a given step size.
    const bool factor_is_current = is_linear_ && options.exploit_linearity &&
                                   lu_ && lu_geq_scale_ == geq_scale &&
                                   lu_gmin_ == gmin;
    if (!factor_is_current) {
      const SparseMatrix a = SparseMatrix::from_triplets(jac);
      if (!lu_) {
        fill_order_ = min_degree_order(a);
        lu_ = std::make_unique<SparseLu>(a, fill_order_);
      } else {
        lu_->refactor(a);
      }
      lu_geq_scale_ = geq_scale;
      lu_gmin_ = gmin;
    }
    const Vector x_new = lu_->solve(rhs);

    // Damped update on the voltage unknowns.
    double max_dv = 0.0;
    for (std::size_t i = 0; i < nv; ++i)
      max_dv = std::max(max_dv, std::fabs(x_new[i] - x[i]));
    double alpha = 1.0;
    if (max_dv > options.max_newton_dv) alpha = options.max_newton_dv / max_dv;

    bool converged = true;
    for (std::size_t i = 0; i < n; ++i) {
      const double dv = x_new[i] - x[i];
      x[i] += alpha * dv;
      // A NaN dv must not pass as converged (fabs(NaN) > tol is false).
      if (!std::isfinite(dv) ||
          (i < nv && std::fabs(dv) >
                         options.v_abstol + options.v_reltol * std::fabs(x[i])))
        converged = false;
    }
    if (converged && alpha == 1.0) {
      fp.check();
      return true;
    }
  }
  return false;
}

Vector Simulator::dc_operating_point() { return dc_full().node_voltages; }

Simulator::DcResult Simulator::dc_full() {
  if (XTV_INJECT_FAULT(FaultSite::kSpiceNewton))
    throw NumericalError(StatusCode::kNewtonDivergence,
                         "Simulator: injected Newton divergence");
  const std::size_t n = unknown_count();
  Vector x(n, 0.0);
  TransientOptions dc_opts;
  dc_opts.max_newton = 120;
  std::size_t iters = 0;

  // Plain Newton from zero, then gmin stepping as fallback.
  if (!newton_solve(x, 0.0, 0.0, IntegrationMethod::kBackwardEuler, x, gmin_,
                    dc_opts, iters)) {
    std::fill(x.begin(), x.end(), 0.0);
    bool ok = false;
    for (double g = 1e-3; g >= gmin_ * 0.99; g *= 0.1) {
      ok = newton_solve(x, 0.0, 0.0, IntegrationMethod::kBackwardEuler, x,
                        std::max(g, gmin_), dc_opts, iters);
      if (!ok) break;
    }
    if (ok)
      ok = newton_solve(x, 0.0, 0.0, IntegrationMethod::kBackwardEuler, x, gmin_,
                        dc_opts, iters);
    if (!ok)
      throw NumericalError(StatusCode::kNewtonDivergence,
                           "Simulator: DC operating point failed");
  }

  DcResult result;
  result.node_voltages.assign(static_cast<std::size_t>(circuit_.node_count()), 0.0);
  for (int node = 1; node < circuit_.node_count(); ++node)
    result.node_voltages[static_cast<std::size_t>(node)] =
        x[static_cast<std::size_t>(node_unknown(node))];
  const std::size_t nv = static_cast<std::size_t>(circuit_.node_count() - 1);
  result.vsource_currents.assign(circuit_.vsources().size(), 0.0);
  for (std::size_t k = 0; k < circuit_.vsources().size(); ++k)
    result.vsource_currents[k] = x[nv + k];
  return result;
}

void Simulator::update_cap_history(const Vector& x, const Vector& prev_x,
                                   double geq_scale, IntegrationMethod method) {
  for (auto& cap : caps_) {
    const double va = voltage(x, cap.a) - voltage(x, cap.b);
    const double vp = voltage(prev_x, cap.a) - voltage(prev_x, cap.b);
    const double geq = geq_scale * cap.farads;
    if (method == IntegrationMethod::kTrapezoidal)
      cap.i_prev = geq * (va - vp) - cap.i_prev;
    else
      cap.i_prev = geq * (va - vp);
  }
}

TransientResult Simulator::transient(const TransientOptions& options,
                                     const std::vector<int>& probe_nodes) {
  if (options.tstop <= 0.0)
    throw std::runtime_error("Simulator: tstop must be positive");
  poll_cancel(options.cancel, "Simulator");
  const double dt0 = options.dt > 0.0 ? options.dt : options.tstop / 2000.0;

  // Charge the expected probe-waveform storage (2 doubles per sample per
  // probe) against the cluster's memory budget before stepping begins.
  resource::ScopedCharge wave_bytes;
  wave_bytes.add((static_cast<std::size_t>(options.tstop / dt0) + 2) *
                 probe_nodes.size() * 2 * sizeof(double));

  // Start from DC; capacitor currents start at zero (steady state).
  const Vector v0 = dc_operating_point();
  const std::size_t n = unknown_count();
  Vector x(n, 0.0);
  for (int node = 1; node < circuit_.node_count(); ++node)
    x[static_cast<std::size_t>(node_unknown(node))] = v0[static_cast<std::size_t>(node)];
  for (auto& cap : caps_) cap.i_prev = 0.0;

  TransientResult result;
  result.probes.resize(probe_nodes.size());
  const std::size_t expected_samples =
      static_cast<std::size_t>(options.tstop / dt0) + 2;
  for (auto& wave : result.probes) wave.reserve(expected_samples);
  auto record = [&](double t) {
    for (std::size_t p = 0; p < probe_nodes.size(); ++p)
      result.probes[p].append(t, voltage(x, probe_nodes[p]));
  };
  record(0.0);

  // One controller walks time: the fixed step dt0 by default, or the
  // error-controlled step on the node voltages when adaptive.
  const std::size_t nv = static_cast<std::size_t>(circuit_.node_count() - 1);
  std::vector<double> corners;
  for (const auto& v : circuit_.vsources()) v.wave.append_corners(corners);
  for (const auto& i : circuit_.isources()) i.wave.append_corners(corners);
  for (const auto& term : circuit_.terminations())
    term.device->append_corners(corners);
  StepController steps(options.tstop, dt0,
                       options.adaptive ? options.lte_vtol : 0.0,
                       dt0 * options.max_dt_growth, std::move(corners));
  steps.start({x.data(), nv});

  while (!steps.done()) {
    steps.begin_step();
    Vector prev = x;
    int halvings = 0;
    for (;;) {
      const double geq_scale =
          (options.method == IntegrationMethod::kTrapezoidal ? 2.0 : 1.0) /
          steps.step();
      Vector trial = prev;
      std::size_t iters = 0;
      const bool ok = newton_solve(trial, steps.trial_time(), geq_scale,
                                   options.method, prev, gmin_, options, iters);
      result.newton_iterations += iters;

      if (ok) {
        if (!steps.accept({trial.data(), nv})) continue;  // error too large
        x = trial;
        update_cap_history(x, prev, geq_scale, options.method);
        ++result.steps;
        record(steps.time());
        break;
      }
      if (++halvings > options.max_step_halvings)
        throw NumericalError(StatusCode::kNewtonDivergence,
                             "Simulator: transient Newton failed at t=" +
                                 std::to_string(steps.time()));
      steps.halve();
    }
  }
  return result;
}

}  // namespace xtv
