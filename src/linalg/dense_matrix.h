// Dense matrix/vector kernels.
//
// Post-pruning coupling clusters are small (tens to a few hundred nodes), so
// the model-order-reduction pipeline (Cholesky, Lanczos, eigen) runs on dense
// storage. Row-major `DenseMatrix` plus free-function BLAS-1/2/3 style
// helpers cover everything the MOR and reduced-simulation code needs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/resource.h"
#include "util/workspace.h"

namespace xtv {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles. Storage is charged against the
/// thread's active resource::ClusterScope (if any), so an over-budget
/// cluster raises the typed kResourceExceeded at the allocation that
/// breaches — before the allocation happens. Each allocation of storage
/// is counted (util/workspace.h).
class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// rows x cols matrix, zero-initialized.
  DenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows),
        cols_(cols),
        charge_(rows * cols * sizeof(double)),
        data_(rows * cols, 0.0) {
    workspace::count_allocation();
  }

  DenseMatrix(const DenseMatrix& other)
      : rows_(other.rows_),
        cols_(other.cols_),
        charge_(other.charge_),
        data_(other.data_) {
    workspace::count_allocation();
  }

  DenseMatrix& operator=(const DenseMatrix& other) {
    if (this != &other) {
      DenseMatrix tmp(other);  // may throw (budget) before we change *this
      *this = std::move(tmp);
    }
    return *this;
  }

  DenseMatrix(DenseMatrix&& other) noexcept
      : rows_(other.rows_),
        cols_(other.cols_),
        charge_(std::move(other.charge_)),
        data_(std::move(other.data_)) {
    other.rows_ = other.cols_ = 0;
  }

  DenseMatrix& operator=(DenseMatrix&& other) noexcept {
    if (this != &other) {
      rows_ = other.rows_;
      cols_ = other.cols_;
      data_ = std::move(other.data_);  // frees ours before the charge goes
      charge_ = std::move(other.charge_);
      other.rows_ = other.cols_ = 0;
    }
    return *this;
  }

  /// Identity matrix of size n.
  static DenseMatrix identity(std::size_t n);

  /// Matrix from nested initializer data (rows of equal length).
  static DenseMatrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Raw row pointer (row-major contiguous).
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  /// Transposed copy.
  DenseMatrix transposed() const;

  /// Frobenius norm.
  double frobenius_norm() const;

  /// Maximum |a_ij - b_ij|; matrices must have equal shape.
  double max_abs_diff(const DenseMatrix& other) const;

  /// Column c as a vector.
  Vector column(std::size_t c) const;
  /// Overwrites column c.
  void set_column(std::size_t c, const Vector& v);

  /// Human-readable rendering (for debugging/tests).
  std::string to_string(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  // Declared before data_: the budget check runs (and may throw) before
  // the storage is allocated, and releases after it is freed.
  resource::MemCharge charge_;
  std::vector<double> data_;
};

/// y = A * x. Requires x.size() == A.cols().
Vector matvec(const DenseMatrix& a, const Vector& x);

/// y = A * x into caller-owned storage (resized; same arithmetic as
/// matvec). Lets hot loops reuse scratch instead of allocating per call.
void matvec_into(const DenseMatrix& a, const Vector& x, Vector& y);

/// y = A^T * x. Requires x.size() == A.rows().
Vector matvec_transposed(const DenseMatrix& a, const Vector& x);

/// y = A^T * x into caller-owned storage (resized; same arithmetic as
/// matvec_transposed).
void matvec_transposed_into(const DenseMatrix& a, const Vector& x, Vector& y);

/// C = A * B.
DenseMatrix matmul(const DenseMatrix& a, const DenseMatrix& b);

/// C = A^T * B.
DenseMatrix matmul_at_b(const DenseMatrix& a, const DenseMatrix& b);

/// Dot product; vectors must have equal length.
double dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double norm2(const Vector& v);

/// y += alpha * x (in place).
void axpy(double alpha, const Vector& x, Vector& y);

/// v *= alpha (in place).
void scale(Vector& v, double alpha);

/// Maximum |a_i - b_i|; vectors must have equal length.
double max_abs_diff(const Vector& a, const Vector& b);

}  // namespace xtv
