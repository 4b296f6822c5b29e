// Unit + property tests for dense linear algebra: matrix ops, LU,
// Cholesky (SyMPVL's symmetrization step), Jacobi eigendecomposition.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/cholesky.h"
#include "linalg/dense_lu.h"
#include "linalg/dense_matrix.h"
#include "linalg/sym_eigen.h"
#include "util/prng.h"

namespace xtv {
namespace {

DenseMatrix random_matrix(std::size_t n, Prng& rng) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
  return m;
}

// Random SPD matrix: A^T A + n*I.
DenseMatrix random_spd(std::size_t n, Prng& rng) {
  DenseMatrix a = random_matrix(n, rng);
  DenseMatrix s = matmul_at_b(a, a);
  for (std::size_t i = 0; i < n; ++i) s(i, i) += static_cast<double>(n);
  return s;
}

TEST(DenseMatrix, IdentityAndIndexing) {
  DenseMatrix i3 = DenseMatrix::identity(3);
  EXPECT_DOUBLE_EQ(i3(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i3(0, 1), 0.0);
  i3(2, 1) = 5.0;
  EXPECT_DOUBLE_EQ(i3(2, 1), 5.0);
}

TEST(DenseMatrix, TransposeRoundTrip) {
  Prng rng(1);
  DenseMatrix a(3, 5);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j) a(i, j) = rng.uniform();
  EXPECT_DOUBLE_EQ(a.transposed().transposed().max_abs_diff(a), 0.0);
}

TEST(DenseMatrix, MatvecMatchesManual) {
  DenseMatrix a = DenseMatrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
  Vector y = matvec(a, {1.0, -1.0});
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], -1.0);
}

TEST(DenseMatrix, MatvecTransposedMatchesExplicitTranspose) {
  Prng rng(2);
  DenseMatrix a(4, 6);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 6; ++j) a(i, j) = rng.uniform(-1, 1);
  Vector x(4);
  for (auto& v : x) v = rng.uniform(-1, 1);
  EXPECT_LT(max_abs_diff(matvec_transposed(a, x), matvec(a.transposed(), x)),
            1e-14);
}

TEST(DenseMatrix, MatmulAssociatesWithIdentity) {
  Prng rng(3);
  DenseMatrix a = random_matrix(5, rng);
  DenseMatrix i5 = DenseMatrix::identity(5);
  EXPECT_LT(matmul(a, i5).max_abs_diff(a), 1e-15);
  EXPECT_LT(matmul(i5, a).max_abs_diff(a), 1e-15);
}

TEST(DenseMatrix, MatmulAtBMatchesExplicit) {
  Prng rng(4);
  DenseMatrix a(6, 3);
  DenseMatrix b(6, 4);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = rng.uniform(-1, 1);
    for (std::size_t j = 0; j < 4; ++j) b(i, j) = rng.uniform(-1, 1);
  }
  EXPECT_LT(matmul_at_b(a, b).max_abs_diff(matmul(a.transposed(), b)), 1e-14);
}

TEST(DenseLu, SolvesRandomSystems) {
  Prng rng(5);
  for (std::size_t n : {1u, 2u, 5u, 20u, 50u}) {
    DenseMatrix a = random_matrix(n, rng);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 3.0;  // keep well-posed
    Vector xref(n);
    for (auto& v : xref) v = rng.uniform(-2, 2);
    const Vector b = matvec(a, xref);
    DenseLu lu(a);
    EXPECT_LT(max_abs_diff(lu.solve(b), xref), 1e-9) << "n=" << n;
  }
}

TEST(DenseLu, PivotsOnZeroDiagonal) {
  // [[0, 1], [1, 0]] requires pivoting.
  DenseMatrix a = DenseMatrix::from_rows({{0, 1}, {1, 0}});
  DenseLu lu(a);
  Vector x = lu.solve(Vector{2.0, 3.0});
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(DenseLu, ThrowsOnSingular) {
  DenseMatrix a = DenseMatrix::from_rows({{1, 2}, {2, 4}});
  EXPECT_THROW(DenseLu{a}, std::runtime_error);
}

TEST(DenseLu, DeterminantOfKnownMatrix) {
  DenseMatrix a = DenseMatrix::from_rows({{2, 0}, {0, 3}});
  EXPECT_NEAR(DenseLu(a).determinant(), 6.0, 1e-12);
  DenseMatrix b = DenseMatrix::from_rows({{0, 1}, {1, 0}});
  EXPECT_NEAR(DenseLu(b).determinant(), -1.0, 1e-12);
}

TEST(DenseLu, MatrixRhsSolve) {
  Prng rng(6);
  DenseMatrix a = random_spd(8, rng);
  DenseMatrix b(8, 3);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 3; ++j) b(i, j) = rng.uniform(-1, 1);
  DenseLu lu(a);
  DenseMatrix x = lu.solve(b);
  EXPECT_LT(matmul(a, x).max_abs_diff(b), 1e-9);
}

TEST(Cholesky, ReconstructsGFromFactor) {
  Prng rng(7);
  for (std::size_t n : {1u, 3u, 10u, 40u}) {
    DenseMatrix g = random_spd(n, rng);
    Cholesky chol(g);
    const DenseMatrix& f = chol.factor();
    // G == F^T F.
    EXPECT_LT(matmul_at_b(f, f).max_abs_diff(g), 1e-9 * (1.0 + static_cast<double>(n)))
        << "n=" << n;
    // F upper triangular.
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(f(i, j), 0.0);
  }
}

TEST(Cholesky, TriangularSolvesInvertApply) {
  Prng rng(8);
  DenseMatrix g = random_spd(12, rng);
  Cholesky chol(g);
  Vector v(12);
  for (auto& x : v) x = rng.uniform(-1, 1);
  // solve_f(apply_f(v)) == v.
  EXPECT_LT(max_abs_diff(chol.solve_f(chol.apply_f(v)), v), 1e-10);
  // G * solve(b) == b.
  const Vector b = matvec(g, v);
  EXPECT_LT(max_abs_diff(chol.solve(b), v), 1e-9);
}

TEST(Cholesky, SolveFtIsTransposeInverse) {
  Prng rng(9);
  DenseMatrix g = random_spd(6, rng);
  Cholesky chol(g);
  Vector b(6);
  for (auto& x : b) x = rng.uniform(-1, 1);
  // F^T * solve_ft(b) == b.
  const Vector x = chol.solve_ft(b);
  const DenseMatrix ft = chol.factor().transposed();
  EXPECT_LT(max_abs_diff(matvec(ft, x), b), 1e-10);
}

TEST(Cholesky, EnvelopeLoopsMatchTheDenseAlgorithm) {
  // Three 4-node chains plus one long-range coupling: column 9's envelope
  // starts at row 1 (with fill inside it), so column starts are not
  // monotone and most of the factor lies outside the envelope.
  const std::size_t n = 12;
  Prng rng(10);
  DenseMatrix g(n, n);
  auto couple = [&](std::size_t i, std::size_t j, double v) {
    g(i, j) = v;
    g(j, i) = v;
  };
  for (std::size_t i = 0; i < n; ++i) g(i, i) = 4.0 + rng.uniform(0, 1);
  for (std::size_t i = 0; i + 1 < n; ++i)
    if (i % 4 != 3) couple(i, i + 1, -rng.uniform(0.5, 1.0));
  couple(1, 9, -0.3);

  // The dense algorithm, every term included.
  DenseMatrix f(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      double s = g(i, j);
      for (std::size_t k = 0; k < i; ++k) s -= f(k, i) * f(k, j);
      f(i, j) = i == j ? std::sqrt(s) : s / f(i, i);
    }
  Vector b(n);
  for (auto& x : b) x = rng.uniform(-1, 1);
  Vector ft_ref(n), f_ref = b, apply_ref(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t j = 0; j < i; ++j) s -= f(j, i) * ft_ref[j];
    ft_ref[i] = s / f(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = f_ref[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= f(ii, j) * f_ref[j];
    f_ref[ii] = s / f(ii, ii);
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) apply_ref[i] += f(i, j) * b[j];

  // Skipped terms are exact zeros, so the values are equal, not close.
  const Cholesky chol(g);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(chol.factor()(i, j), f(i, j)) << i << "," << j;
  EXPECT_NE(f(2, 9), 0.0);  // fill inside column 9's envelope
  EXPECT_EQ(chol.solve_ft(b), ft_ref);
  EXPECT_EQ(chol.solve_f(b), f_ref);
  EXPECT_EQ(chol.apply_f(b), apply_ref);
}

TEST(Cholesky, ThrowsOnIndefinite) {
  DenseMatrix g = DenseMatrix::from_rows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  EXPECT_THROW(Cholesky{g}, std::runtime_error);
}

TEST(SymEigen, DiagonalMatrix) {
  DenseMatrix a = DenseMatrix::from_rows({{3, 0}, {0, 1}});
  SymEigen e = sym_eigen(a);
  EXPECT_NEAR(e.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(e.eigenvalues[1], 3.0, 1e-12);
}

TEST(SymEigen, KnownEigenpairs) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  DenseMatrix a = DenseMatrix::from_rows({{2, 1}, {1, 2}});
  SymEigen e = sym_eigen(a);
  EXPECT_NEAR(e.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(e.eigenvalues[1], 3.0, 1e-12);
}

// Property: Q A Q^T = diag(d) and Q Q^T = I for random symmetric matrices.
class SymEigenProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SymEigenProperty, DecompositionIsExact) {
  const std::size_t n = GetParam();
  Prng rng(100 + n);
  DenseMatrix a = random_matrix(n, rng);
  // Symmetrize.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) a(j, i) = a(i, j);

  SymEigen e = sym_eigen(a);
  // Orthogonality: Q Q^T = I.
  DenseMatrix qqt = matmul(e.q, e.q.transposed());
  EXPECT_LT(qqt.max_abs_diff(DenseMatrix::identity(n)), 1e-10) << "n=" << n;
  // Q A Q^T = diag(d).
  DenseMatrix d = matmul(matmul(e.q, a), e.q.transposed());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(d(i, i), e.eigenvalues[i], 1e-9);
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        EXPECT_NEAR(d(i, j), 0.0, 1e-9);
      }
    }
  }
  // Eigenvalues ascending.
  for (std::size_t i = 1; i < n; ++i)
    EXPECT_LE(e.eigenvalues[i - 1], e.eigenvalues[i] + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymEigenProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(SymEigen, TraceAndDeterminantPreserved) {
  Prng rng(10);
  DenseMatrix a = random_spd(9, rng);
  SymEigen e = sym_eigen(a);
  double trace_a = 0.0;
  for (std::size_t i = 0; i < 9; ++i) trace_a += a(i, i);
  double trace_d = 0.0;
  double det_d = 1.0;
  for (double lam : e.eigenvalues) {
    trace_d += lam;
    det_d *= lam;
  }
  EXPECT_NEAR(trace_a, trace_d, 1e-9 * std::fabs(trace_a));
  EXPECT_NEAR(DenseLu(a).determinant(), det_d, 1e-6 * std::fabs(det_d));
}

TEST(SymEigen, SpdHasPositiveSpectrum) {
  Prng rng(11);
  DenseMatrix a = random_spd(15, rng);
  SymEigen e = sym_eigen(a);
  for (double lam : e.eigenvalues) EXPECT_GT(lam, 0.0);
}

}  // namespace
}  // namespace xtv
