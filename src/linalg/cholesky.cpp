#include "linalg/cholesky.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/fault_injection.h"
#include "util/fp_guard.h"
#include "util/status.h"

namespace xtv {

Cholesky::Cholesky(const DenseMatrix& g, double tol) {
  if (g.rows() != g.cols())
    throw std::runtime_error("Cholesky: matrix must be square");
  if (XTV_INJECT_FAULT(FaultSite::kCholeskyFactor))
    throw NumericalError(StatusCode::kCholeskyBreakdown,
                         "Cholesky: injected factorization fault");
  const std::size_t n = g.rows();
  double max_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    max_diag = std::max(max_diag, std::fabs(g(i, i)));
  const double floor = tol * (max_diag > 0.0 ? max_diag : 1.0);

  // The envelope of upper G, which F shares.
  first_.assign(n, 0);
  row_end_.assign(n, 0);
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t k = 0;
    while (k < j && g(k, j) == 0.0) ++k;
    first_[j] = k;
    row_end_[k] = std::max(row_end_[k], j + 1);
  }
  for (std::size_t i = 1; i < n; ++i)
    row_end_[i] = std::max(row_end_[i], row_end_[i - 1]);

  // Build the upper factor row by row: F(i,j) for j >= i, so that
  // G = F^T F. This is the classic algorithm on the transposed convention,
  // with the inner products started where both columns' envelopes begin.
  FpKernelGuard fp("cholesky_factor");
  f_ = DenseMatrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < row_end_[i]; ++j) {
      if (first_[j] > i) continue;  // above column j's envelope: stays 0
      double s = g(i, j);
      for (std::size_t k = std::max(first_[i], first_[j]); k < i; ++k)
        s -= f_(k, i) * f_(k, j);
      if (i == j) {
        if (s <= floor)
          throw NumericalError(StatusCode::kCholeskyBreakdown,
                               "Cholesky: matrix is not positive definite");
        f_(i, i) = std::sqrt(s);
      } else {
        f_(i, j) = s / f_(i, i);
      }
    }
  }
  fp.check();
}

Vector Cholesky::apply_f(const Vector& v) const {
  const std::size_t n = size();
  assert(v.size() == n);
  Vector x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = f_.row(i);
    double s = 0.0;
    for (std::size_t j = i; j < row_end_[i]; ++j) s += row[j] * v[j];
    x[i] = s;
  }
  return x;
}

Vector Cholesky::solve_f(const Vector& b) const {
  const std::size_t n = size();
  assert(b.size() == n);
  Vector x(b);
  for (std::size_t ii = n; ii-- > 0;) {
    const double* row = f_.row(ii);
    double s = x[ii];
    for (std::size_t j = ii + 1; j < row_end_[ii]; ++j) s -= row[j] * x[j];
    x[ii] = s / row[ii];
  }
  return x;
}

Vector Cholesky::solve_ft(const Vector& b) const {
  const std::size_t n = size();
  assert(b.size() == n);
  Vector x(n);
  // F^T is lower triangular with (F^T)(i,j) = F(j,i).
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t j = first_[i]; j < i; ++j) s -= f_(j, i) * x[j];
    x[i] = s / f_(i, i);
  }
  return x;
}

Vector Cholesky::solve(const Vector& b) const { return solve_f(solve_ft(b)); }

DenseMatrix Cholesky::solve_ft(const DenseMatrix& b) const {
  assert(b.rows() == size());
  DenseMatrix x(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c)
    x.set_column(c, solve_ft(b.column(c)));
  return x;
}

}  // namespace xtv
