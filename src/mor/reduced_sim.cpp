#include "mor/reduced_sim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "linalg/dense_lu.h"
#include "linalg/sym_eigen.h"
#include "util/fault_injection.h"
#include "util/fp_guard.h"
#include "util/resource.h"
#include "util/status.h"

namespace xtv {

ReducedEigenSystem diagonalize_reduced(const ReducedModel& model) {
  // Diagonalize T = Q^T D Q once; the whole transient then runs in the
  // eigenbasis.
  ReducedEigenSystem sys;
  FpKernelGuard fp("reduced_eigen");
  const SymEigen eig = sym_eigen(model.t);
  fp.check();
  sys.d = eig.eigenvalues;
  // Clamp the tiny negative round-off eigenvalues a PSD T can exhibit; a
  // genuinely indefinite T would indicate a broken reduction and is
  // rejected (it would make the integrator unstable — the passivity
  // guarantee of the paper's ref. [4] is what we rely on here).
  double scale = 0.0;
  for (double v : sys.d) scale = std::max(scale, std::fabs(v));
  if (XTV_INJECT_FAULT(FaultSite::kPassivityCheck))
    throw NumericalError(StatusCode::kNotPassive,
                         "ReducedSimulator: injected passivity fault");
  for (double& v : sys.d) {
    if (v < -1e-9 * std::max(scale, 1e-300))
      throw NumericalError(StatusCode::kNotPassive,
                           "ReducedSimulator: T is not PSD (not passive)");
    v = std::max(v, 0.0);
  }
  sys.eta = matmul(eig.q, model.rho);
  return sys;
}

ReducedSimulator::ReducedSimulator(const ReducedModel& model)
    : ReducedSimulator(diagonalize_reduced(model)) {}

ReducedSimulator::ReducedSimulator(ReducedEigenSystem system)
    : d_(std::move(system.d)), eta_(std::move(system.eta)) {}

void ReducedSimulator::set_input(std::size_t port, SourceWave current) {
  if (port >= port_count())
    throw std::runtime_error("ReducedSimulator: bad input port");
  inputs_.insert_or_assign(port, std::move(current));
}

void ReducedSimulator::set_termination(std::size_t port,
                                       std::shared_ptr<const OnePortDevice> device) {
  if (port >= port_count())
    throw std::runtime_error("ReducedSimulator: bad termination port");
  if (!device) throw std::runtime_error("ReducedSimulator: null device");
  terminations_.insert_or_assign(port, std::move(device));
}

void ReducedSimulator::clear() {
  inputs_.clear();
  terminations_.clear();
}

void ReducedSimulator::bind_configuration() {
  const std::size_t q = order();
  input_list_.clear();
  for (const auto& [port, wave] : inputs_) input_list_.emplace_back(port, &wave);
  nl_ports_.clear();
  nl_devs_.clear();
  for (const auto& [port, dev] : terminations_) {
    nl_ports_.push_back(port);
    nl_devs_.push_back(dev.get());
  }
  const std::size_t m = nl_ports_.size();
  u_cols_.assign(q * m, 0.0);
  for (std::size_t i = 0; i < q; ++i)
    for (std::size_t k = 0; k < m; ++k) u_cols_[i * m + k] = eta_(i, nl_ports_[k]);
  alpha_valid_ = false;
}

void ReducedSimulator::set_alpha(double alpha) {
  if (alpha_valid_ && alpha == alpha_cached_) return;
  const std::size_t q = order();
  const std::size_t m = nl_ports_.size();
  dd_inv_.assign(q, 0.0);
  for (std::size_t i = 0; i < q; ++i) dd_inv_[i] = 1.0 / (1.0 + alpha * d_[i]);
  s_alpha_.assign(m * m, 0.0);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      double acc = 0.0;
      for (std::size_t i = 0; i < q; ++i)
        acc += u_cols_[i * m + a] * dd_inv_[i] * u_cols_[i * m + b];
      s_alpha_[a * m + b] = acc;
    }
  }
  alpha_cached_ = alpha;
  alpha_valid_ = true;
}

bool ReducedSimulator::newton_solve(Vector& x, double t, double alpha,
                                    const Vector& d_beta, int max_newton,
                                    double v_abstol,
                                    std::size_t& iterations) {
  const std::size_t q = order();
  const std::size_t p = port_count();
  const std::size_t m = nl_ports_.size();
  Scratch& sc = scratch_;

  set_alpha(alpha);
  const Vector& dd_inv = dd_inv_;

  // Known (linear) port injections at t, fixed across iterations.
  sc.u.assign(p, 0.0);
  for (const auto& [port, wave] : input_list_) sc.u[port] += wave->value(t);

  // Checked only on the converged path: a diverging iterate may overflow
  // transiently and still be rescued by a halved step, but a "converged"
  // solution with invalid/overflow evidence in the FP flags is poison.
  FpKernelGuard fp("reduced_newton");
  for (int iter = 0; iter < max_newton; ++iter) {
    ++iterations;
    fp.rearm();
    // Port voltages and total currents at the trial point.
    matvec_transposed_into(eta_, x, sc.vports);
    sc.itotal = sc.u;
    sc.g.assign(m, 0.0);
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t port = nl_ports_[k];
      sc.itotal[port] += nl_devs_[k]->current(sc.vports[port], t);
      sc.g[k] = nl_devs_[k]->conductance(sc.vports[port], t);
    }

    // Residual F = (I + alpha D) x + D beta - eta * itotal; r = -F is the
    // Newton RHS.
    matvec_into(eta_, sc.itotal, sc.eta_i);
    sc.r.assign(q, 0.0);
    for (std::size_t i = 0; i < q; ++i)
      sc.r[i] = sc.eta_i[i] - ((1.0 + alpha * d_[i]) * x[i] + d_beta[i]);

    // Solve (Dd - U G U^T) dx = r with U = eta columns of the nonlinear
    // ports, via the m x m Woodbury system (I_m - S G) w = U^T Dd^{-1} r;
    // then dx = Dd^{-1}(r + U G w).
    sc.dx.assign(q, 0.0);
    if (m == 0) {
      for (std::size_t i = 0; i < q; ++i) sc.dx[i] = dd_inv[i] * sc.r[i];
    } else {
      // The m x m pieces live in reused scratch and are factored in place
      // by DenseLu's kernel, but each keeps the memory charge of the
      // matrix it stands for (S, the system, and the LU factor's copy),
      // so a marginal cluster budget breaches at the same point with the
      // same message as a per-iteration allocation.
      const std::size_t mat_bytes = m * m * sizeof(double);
      resource::MemCharge charge_s(mat_bytes);
      sc.srhs.assign(m, 0.0);
      for (std::size_t a = 0; a < m; ++a)
        for (std::size_t i = 0; i < q; ++i)
          sc.srhs[a] += u_cols_[i * m + a] * dd_inv[i] * sc.r[i];
      resource::MemCharge charge_msys(mat_bytes);
      sc.msys.assign(m * m, 0.0);
      for (std::size_t a = 0; a < m; ++a)
        for (std::size_t b = 0; b < m; ++b)
          sc.msys[a * m + b] =
              (a == b ? 1.0 : 0.0) - s_alpha_[a * m + b] * sc.g[b];
      resource::MemCharge charge_lu(mat_bytes);
      lu_factor_inplace(sc.msys.data(), m, sc.perm);
      lu_solve_inplace(sc.msys.data(), sc.perm.data(), m, sc.srhs, sc.w);
      sc.rgw = sc.r;
      for (std::size_t k = 0; k < m; ++k)
        for (std::size_t i = 0; i < q; ++i)
          sc.rgw[i] += u_cols_[i * m + k] * sc.g[k] * sc.w[k];
      for (std::size_t i = 0; i < q; ++i) sc.dx[i] = dd_inv[i] * sc.rgw[i];
    }

    for (std::size_t i = 0; i < q; ++i) x[i] += sc.dx[i];

    // Converged when the port-voltage change is negligible. A NaN dv must
    // not count as converged (fabs(NaN) > tol is false), so finiteness is
    // part of the convergence predicate.
    double max_dv = 0.0;
    bool finite = true;
    matvec_transposed_into(eta_, sc.dx, sc.dv);
    for (std::size_t pp = 0; pp < p; ++pp) {
      finite = finite && std::isfinite(sc.dv[pp]);
      max_dv = std::max(max_dv, std::fabs(sc.dv[pp]));
    }
    if (finite && max_dv < v_abstol) {
      fp.check();
      return true;
    }
  }
  return false;
}

ReducedSimResult ReducedSimulator::run(const ReducedSimOptions& options) {
  if (options.tstop <= 0.0)
    throw std::runtime_error("ReducedSimulator: tstop must be positive");
  if (XTV_INJECT_FAULT(FaultSite::kReducedNewton))
    throw NumericalError(StatusCode::kNewtonDivergence,
                         "ReducedSimulator: injected Newton divergence");
  poll_cancel(options.cancel, "ReducedSimulator");
  const double dt = options.dt > 0.0 ? options.dt : options.tstop / 2000.0;
  const std::size_t q = order();
  const std::size_t p = port_count();
  bind_configuration();

  // Charge the expected waveform storage (2 doubles per sample per port)
  // up front, so an over-budget transient fails before the time loop runs
  // rather than after minutes of stepping.
  resource::ScopedCharge wave_bytes;
  wave_bytes.add((static_cast<std::size_t>(options.tstop / dt) + 2) * p * 2 *
                 sizeof(double));

  // DC start.
  Vector x(q, 0.0);
  Vector d_beta(q, 0.0);
  {
    std::size_t iters = 0;
    if (!newton_solve(x, 0.0, 0.0, d_beta, /*max_newton=*/200,
                      options.v_abstol, iters))
      throw NumericalError(StatusCode::kNewtonDivergence,
                           "ReducedSimulator: DC fixed point failed");
  }
  Vector xdot(q, 0.0);  // steady state

  ReducedSimResult result;
  result.port_voltages.resize(p);
  const std::size_t expected_samples =
      static_cast<std::size_t>(options.tstop / dt) + 2;
  for (auto& wave : result.port_voltages) wave.reserve(expected_samples);
  auto record = [&](double t) {
    Vector& v = scratch_.rec;
    matvec_transposed_into(eta_, x, v);
    for (std::size_t pp = 0; pp < p; ++pp) result.port_voltages[pp].append(t, v[pp]);
  };
  record(0.0);

  double t = 0.0;
  Vector trial(q);
  Vector x_acc_prev(q, 0.0);  // previous accepted state (LTE proxy)
  double h_prev = 0.0;
  bool have_prev = false;
  while (t < options.tstop - 1e-18) {
    double h = std::min(dt, options.tstop - t);
    int halvings = 0;
    for (;;) {
      poll_cancel(options.cancel, "ReducedSimulator");
      const double a = (options.trapezoidal ? 2.0 : 1.0) / h;
      // beta_k: BE: -x_{k-1}/h; TRAP: -(2/h) x_{k-1} - xdot_{k-1}.
      for (std::size_t i = 0; i < q; ++i) {
        const double beta =
            options.trapezoidal ? (-a * x[i] - xdot[i]) : (-a * x[i]);
        d_beta[i] = d_[i] * beta;
      }
      trial = x;
      std::size_t iters = 0;
      const bool ok = newton_solve(trial, t + h, a, d_beta, options.max_newton,
                                   options.v_abstol, iters);
      result.newton_iterations += iters;

      // Step-size rejection on local-truncation blowup: second-difference
      // proxy on the port voltages, scaled for the uneven step pair.
      if (ok && options.lte_vtol > 0.0 && have_prev &&
          halvings < options.max_step_halvings) {
        const double r = h / h_prev;
        double lte = 0.0;
        Vector& vt = scratch_.lte_vt;
        Vector& vc = scratch_.lte_vc;
        Vector& vp = scratch_.lte_vp;
        matvec_transposed_into(eta_, trial, vt);
        matvec_transposed_into(eta_, x, vc);
        matvec_transposed_into(eta_, x_acc_prev, vp);
        for (std::size_t pp = 0; pp < p; ++pp)
          lte = std::max(lte,
                         std::fabs(vt[pp] - vc[pp] - r * (vc[pp] - vp[pp])));
        if (lte > options.lte_vtol) {
          ++halvings;
          ++result.step_rejections;
          h *= 0.5;
          continue;
        }
      }

      if (ok) {
        if (options.trapezoidal) {
          for (std::size_t i = 0; i < q; ++i)
            xdot[i] = a * (trial[i] - x[i]) - xdot[i];
        }
        x_acc_prev = x;
        h_prev = h;
        have_prev = true;
        x = trial;
        t += h;
        ++result.steps;
        record(t);
        break;
      }
      // Newton divergence: retry the same point with a halved step before
      // reporting the failure as a typed, recoverable condition.
      if (++halvings > options.max_step_halvings)
        throw NumericalError(StatusCode::kNewtonDivergence,
                             "ReducedSimulator: Newton failed at t=" +
                                 std::to_string(t));
      ++result.step_rejections;
      h *= 0.5;
    }
  }
  return result;
}

}  // namespace xtv
