// Dense LU factorization with partial pivoting.
//
// Used for reduced-system solves and as the reference factorization in
// tests; the SPICE engine itself uses the sparse LU in sparse_lu.h.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/dense_matrix.h"

namespace xtv {

/// The kernel behind DenseLu, for callers that factor into their own
/// reused storage: factors the row-major n x n matrix at `lu` in place
/// (PA = LU, unit-diagonal L stored below U), fills `perm` (row i of PA is
/// row perm[i] of A), and returns the permutation sign. Throws
/// NumericalError(kSingularMatrix) on a pivot at or below `pivot_tol`.
int lu_factor_inplace(double* lu, std::size_t n,
                      std::vector<std::size_t>& perm,
                      double pivot_tol = 1e-300);

/// Solves A x = b from a lu_factor_inplace() factorization; `x` is resized.
void lu_solve_inplace(const double* lu, const std::size_t* perm,
                      std::size_t n, const Vector& b, Vector& x);

/// PA = LU factorization with partial (row) pivoting. L has unit diagonal
/// and is stored together with U in a single matrix.
class DenseLu {
 public:
  /// Factors `a` (square). Throws std::runtime_error if the matrix is
  /// numerically singular (pivot below the absolute tolerance).
  explicit DenseLu(DenseMatrix a, double pivot_tol = 1e-300);

  std::size_t size() const { return lu_.rows(); }

  /// Solves A x = b.
  Vector solve(const Vector& b) const;

  /// Solves A X = B column-by-column.
  DenseMatrix solve(const DenseMatrix& b) const;

  /// det(A) (product of pivots with permutation sign).
  double determinant() const;

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;  // row permutation: row i of PA is row perm_[i] of A
  int perm_sign_ = 1;
};

}  // namespace xtv
