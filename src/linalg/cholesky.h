// Dense Cholesky factorization of symmetric positive definite matrices.
//
// SyMPVL's first step collapses the MNA pair (G, C) into a single symmetric
// operator via G = F^T F (paper Section 3, eq. (1)->(2)); this class provides
// that factorization together with the triangular solves needed to apply
// F^{-1} and F^{-T} without ever forming A = F^{-T} C F^{-1} column products
// through an explicit inverse.
//
// Storage is dense, but the work follows the envelope: column j of F is
// zero above the first nonzero row of column j of upper G (a Cholesky
// factor fills nothing above the envelope), so the factorization and the
// solves loop only inside it. Every skipped term is an exact zero, in the
// order the dense loops would have met it, so the values are those of the
// dense algorithm. Per-net RC chains in natural order have no fill at all.
#pragma once

#include <vector>

#include "linalg/dense_matrix.h"

namespace xtv {

/// Upper-triangular Cholesky: G = F^T F with F upper triangular and positive
/// diagonal. (Equivalent to the conventional lower form L L^T with F = L^T;
/// the upper form matches the paper's notation x = F v.)
class Cholesky {
 public:
  /// Factors the SPD matrix `g`. Throws std::runtime_error if `g` is not
  /// positive definite within `tol` (relative to the largest diagonal).
  explicit Cholesky(const DenseMatrix& g, double tol = 1e-13);

  std::size_t size() const { return f_.rows(); }

  /// The factor F (upper triangular).
  const DenseMatrix& factor() const { return f_; }

  /// x = F v (upper-triangular multiply).
  Vector apply_f(const Vector& v) const;

  /// Solves F x = b (back substitution), i.e. x = F^{-1} b.
  Vector solve_f(const Vector& b) const;

  /// Solves F^T x = b (forward substitution), i.e. x = F^{-T} b.
  Vector solve_ft(const Vector& b) const;

  /// Solves G x = b via the two triangular solves.
  Vector solve(const Vector& b) const;

  /// Column-wise solve_ft of a matrix: returns F^{-T} B.
  DenseMatrix solve_ft(const DenseMatrix& b) const;

 private:
  DenseMatrix f_;
  /// first_[j]: first structurally nonzero row of column j of F.
  std::vector<std::size_t> first_;
  /// row_end_[i]: one past the last nonzero column of row i of F.
  std::vector<std::size_t> row_end_;
};

}  // namespace xtv
