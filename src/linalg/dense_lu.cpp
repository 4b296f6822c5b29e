#include "linalg/dense_lu.h"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/fault_injection.h"
#include "util/status.h"

namespace xtv {

int lu_factor_inplace(double* lu, std::size_t n,
                      std::vector<std::size_t>& perm, double pivot_tol) {
  if (XTV_INJECT_FAULT(FaultSite::kDenseLuFactor))
    throw NumericalError(StatusCode::kSingularMatrix,
                         "DenseLu: injected factorization fault");
  perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  int sign = 1;
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest |value| in column k at or below the diagonal.
    std::size_t piv = k;
    double best = std::fabs(lu[k * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(lu[i * n + k]);
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (best <= pivot_tol)
      throw NumericalError(StatusCode::kSingularMatrix,
                           "DenseLu: matrix is singular");
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(lu[k * n + c], lu[piv * n + c]);
      std::swap(perm[k], perm[piv]);
      sign = -sign;
    }
    const double pivot = lu[k * n + k];
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = lu[i * n + k] / pivot;
      lu[i * n + k] = m;
      if (m == 0.0) continue;
      const double* urow = lu + k * n;
      double* irow = lu + i * n;
      for (std::size_t c = k + 1; c < n; ++c) irow[c] -= m * urow[c];
    }
  }
  return sign;
}

void lu_solve_inplace(const double* lu, const std::size_t* perm,
                      std::size_t n, const Vector& b, Vector& x) {
  x.assign(n, 0.0);
  // Forward substitution with permutation: L y = P b.
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[perm[i]];
    const double* row = lu + i * n;
    for (std::size_t j = 0; j < i; ++j) s -= row[j] * x[j];
    x[i] = s;
  }
  // Back substitution: U x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    const double* row = lu + ii * n;
    for (std::size_t j = ii + 1; j < n; ++j) s -= row[j] * x[j];
    x[ii] = s / row[ii];
  }
}

DenseLu::DenseLu(DenseMatrix a, double pivot_tol) : lu_(std::move(a)) {
  if (lu_.rows() != lu_.cols())
    throw std::runtime_error("DenseLu: matrix must be square");
  perm_sign_ = lu_factor_inplace(lu_.row(0), lu_.rows(), perm_, pivot_tol);
}

Vector DenseLu::solve(const Vector& b) const {
  assert(b.size() == size());
  Vector x;
  lu_solve_inplace(lu_.row(0), perm_.data(), size(), b, x);
  return x;
}

DenseMatrix DenseLu::solve(const DenseMatrix& b) const {
  assert(b.rows() == size());
  DenseMatrix x(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c)
    x.set_column(c, solve(b.column(c)));
  return x;
}

double DenseLu::determinant() const {
  double d = perm_sign_;
  for (std::size_t i = 0; i < size(); ++i) d *= lu_(i, i);
  return d;
}

}  // namespace xtv
