#include "mor/sympvl.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "linalg/cholesky.h"
#include "linalg/dense_lu.h"
#include "linalg/sym_eigen.h"
#include "util/fault_injection.h"
#include "util/fp_guard.h"
#include "util/resource.h"
#include "util/status.h"

namespace xtv {

DenseMatrix ReducedModel::transfer(double s) const {
  const std::size_t q = order();
  // m = I + s T.
  DenseMatrix m(q, q);
  for (std::size_t i = 0; i < q; ++i)
    for (std::size_t j = 0; j < q; ++j) m(i, j) = (i == j ? 1.0 : 0.0) + s * t(i, j);
  DenseLu lu(m);
  return matmul_at_b(rho, lu.solve(rho));
}

DenseMatrix ReducedModel::moment(unsigned k) const {
  DenseMatrix acc = rho;  // T^k rho accumulated column-wise
  for (unsigned i = 0; i < k; ++i) acc = matmul(t, acc);
  return matmul_at_b(rho, acc);
}

double ReducedModel::min_t_eigenvalue() const {
  if (t.rows() == 0) return 0.0;
  return sym_eigen(t).eigenvalues.front();
}

bool ReducedModel::is_passive(double tol) const {
  return min_t_eigenvalue() >= -tol;
}

namespace {

// Orthogonalizes `v` against the columns of `basis[0..count)` with two
// passes of modified Gram-Schmidt; returns the residual norm.
double orthogonalize(Vector& v, const std::vector<Vector>& basis) {
  for (int pass = 0; pass < 2; ++pass) {
    for (const Vector& u : basis) {
      const double proj = dot(u, v);
      axpy(-proj, u, v);
    }
  }
  return norm2(v);
}

}  // namespace

ReducedModel sympvl_reduce(const DenseMatrix& g, const DenseMatrix& c,
                           const DenseMatrix& b, const SympvlOptions& options) {
  if (g.rows() != g.cols() || c.rows() != c.cols() || g.rows() != c.rows() ||
      b.rows() != g.rows())
    throw std::runtime_error("sympvl_reduce: inconsistent matrix shapes");
  const std::size_t n = g.rows();
  const std::size_t p = b.cols();
  if (p == 0) throw std::runtime_error("sympvl_reduce: no ports");
  if (XTV_INJECT_FAULT(FaultSite::kLanczosSweep))
    throw NumericalError(StatusCode::kLanczosBreakdown,
                         "sympvl_reduce: injected Krylov sweep fault");

  const std::size_t q_max =
      options.max_order > 0 ? std::min(options.max_order, n)
                            : std::min(4 * p, n);

  // Step 1: G = F^T F;  L = F^{-T} B. (Cholesky carries its own FP guard;
  // ours starts after it so neither clears the other's evidence.)
  Cholesky chol(g);
  FpKernelGuard fp("sympvl_reduce");
  const DenseMatrix l = chol.solve_ft(b);

  // Krylov storage charged against the cluster's memory budget: each
  // accepted basis vector later needs a matching A*v image in the
  // projection step, hence 2 n-vectors per accepted direction. The full
  // q_max reservation is charged up front (and shrunk to the accepted
  // basis after the sweep), so an over-budget reduction fails before any
  // Krylov work happens and incremental growth can never inflate the
  // accounted peak beyond the reservation.
  resource::ScopedCharge krylov_bytes;
  krylov_bytes.add(2 * n * q_max * sizeof(double));

  // A v = F^{-T} C F^{-1} v, applied without forming A. C is applied by
  // its nonzeros, row by row in ascending column order: the dense matvec's
  // sums without their exact-zero terms, so the same values.
  std::vector<std::size_t> c_row(n + 1, 0);
  std::vector<std::size_t> c_col;
  std::vector<double> c_val;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = c.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      if (row[j] == 0.0) continue;
      c_col.push_back(j);
      c_val.push_back(row[j]);
    }
    c_row[i + 1] = c_col.size();
  }
  Vector cw(n);
  auto apply_a = [&](const Vector& v) {
    const Vector w = chol.solve_f(v);
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t e = c_row[i]; e < c_row[i + 1]; ++e) acc += c_val[e] * w[c_col[e]];
      cw[i] = acc;
    }
    return chol.solve_ft(cw);
  };

  // Reference scale for deflation decisions.
  double l_scale = 0.0;
  for (std::size_t j = 0; j < p; ++j) l_scale = std::max(l_scale, norm2(l.column(j)));
  if (l_scale <= 0.0)
    throw NumericalError(StatusCode::kLanczosBreakdown,
                         "sympvl_reduce: zero input block (no port coupling)");
  const double defl = options.deflation_tol * l_scale;

  // Block Krylov sweep with full reorthogonalization + deflation. The
  // basis is reserved to its ceiling so push_back never reallocates, and
  // blocks are tracked as indices into it instead of copies.
  std::vector<Vector> basis;  // orthonormal columns of V
  basis.reserve(q_max);
  std::vector<std::size_t> last_block;  // most recent accepted block
  last_block.reserve(p);
  // Seed block: columns of L.
  for (std::size_t j = 0; j < p && basis.size() < q_max; ++j) {
    poll_cancel(options.cancel, "sympvl_reduce/seed");
    Vector v = l.column(j);
    const double r = orthogonalize(v, basis);
    if (r <= defl) continue;  // deflated: linearly dependent input column
    scale(v, 1.0 / r);
    basis.push_back(std::move(v));
    last_block.push_back(basis.size() - 1);
  }

  std::vector<std::size_t> next_block;
  next_block.reserve(p);
  while (basis.size() < q_max && !last_block.empty()) {
    next_block.clear();
    for (const std::size_t ui : last_block) {
      if (basis.size() >= q_max) break;
      poll_cancel(options.cancel, "sympvl_reduce/sweep");
      Vector v = apply_a(basis[ui]);
      const double pre = norm2(v);
      const double r = orthogonalize(v, basis);
      // Deflate when the new direction is negligible relative to what A
      // produced (local scale), or absolutely tiny.
      if (r <= options.deflation_tol * std::max(pre, 1e-300)) continue;
      scale(v, 1.0 / r);
      basis.push_back(std::move(v));
      next_block.push_back(basis.size() - 1);
    }
    std::swap(last_block, next_block);
  }

  const std::size_t q = basis.size();
  if (q == 0)
    throw NumericalError(StatusCode::kLanczosBreakdown,
                         "sympvl_reduce: empty Krylov basis");
  // Deflation accepted q <= q_max directions; return the unused part of
  // the reservation (the recorded peak keeps the honest high-water mark).
  krylov_bytes.shrink(2 * n * (q_max - q) * sizeof(double));

  // Project: T = V^T A V (then symmetrize), rho = V^T L.
  ReducedModel model;
  model.t = DenseMatrix(q, q);
  std::vector<Vector> av(q);
  for (std::size_t j = 0; j < q; ++j) av[j] = apply_a(basis[j]);
  for (std::size_t i = 0; i < q; ++i)
    for (std::size_t j = 0; j < q; ++j) model.t(i, j) = dot(basis[i], av[j]);
  for (std::size_t i = 0; i < q; ++i)
    for (std::size_t j = i + 1; j < q; ++j) {
      const double s = 0.5 * (model.t(i, j) + model.t(j, i));
      model.t(i, j) = s;
      model.t(j, i) = s;
    }

  model.rho = DenseMatrix(q, p);
  for (std::size_t i = 0; i < q; ++i)
    for (std::size_t j = 0; j < p; ++j) model.rho(i, j) = dot(basis[i], l.column(j));
  fp.check();
  return model;
}

ReducedModel sympvl_reduce(const RcNetwork& network, bool couple,
                           const SympvlOptions& options) {
  return sympvl_reduce(network.g_matrix(), network.c_matrix(couple),
                       network.b_matrix(), options);
}

DenseMatrix exact_moment(const DenseMatrix& g, const DenseMatrix& c,
                         const DenseMatrix& b, unsigned k) {
  DenseLu lu(g);
  DenseMatrix acc = lu.solve(b);  // G^{-1} B
  for (unsigned i = 0; i < k; ++i) acc = lu.solve(matmul(c, acc));
  return matmul_at_b(b, acc);
}

}  // namespace xtv
