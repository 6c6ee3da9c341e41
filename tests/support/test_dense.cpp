#include "support/dense.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "reference/reference_impls.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace aal {
namespace {

dense::Matrix random_matrix(std::size_t n, std::size_t d, Rng& rng) {
  dense::Matrix x(n, d);
  for (double& v : x.data) v = rng.next_double(-2.0, 2.0);
  return x;
}

TEST(DenseMatrix, FromRowsRoundTrip) {
  const std::vector<std::vector<double>> rows{{1.0, 2.0}, {3.0, 4.0}};
  const dense::Matrix m = dense::from_rows(rows);
  EXPECT_EQ(m.rows, 2u);
  EXPECT_EQ(m.cols, 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
}

TEST(DenseMatrix, FromRowsRejectsRagged) {
  const std::vector<std::vector<double>> bad{{1.0, 2.0}, {3.0}};
  EXPECT_THROW(dense::from_rows(bad), InvalidArgument);
}

TEST(DenseMatrix, FromRowsEmpty) {
  EXPECT_TRUE(dense::from_rows({}).empty());
}

TEST(DenseDot, MatchesSerialSum) {
  Rng rng(1);
  for (const std::size_t n : {0u, 1u, 3u, 4u, 7u, 16u, 33u}) {
    std::vector<double> a(n), b(n);
    for (auto& v : a) v = rng.next_double(-1.0, 1.0);
    for (auto& v : b) v = rng.next_double(-1.0, 1.0);
    double expected = 0.0;
    for (std::size_t i = 0; i < n; ++i) expected += a[i] * b[i];
    EXPECT_NEAR(dense::dot(a.data(), b.data(), n), expected, 1e-12) << n;
  }
}

TEST(DenseAxpy, BitwiseEqualsScalarLoop) {
  Rng rng(2);
  std::vector<double> x(17), y(17), expected(17);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.next_double();
    y[i] = rng.next_double();
    expected[i] = y[i] + 0.37 * x[i];
  }
  dense::axpy(0.37, x.data(), y.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(y[i], expected[i]);
  }
}

TEST(DensePairwiseSqDist, BlockedMatchesNaive) {
  Rng rng(5);
  for (const std::size_t n : {1u, 2u, 48u, 49u, 120u}) {
    const dense::Matrix x = random_matrix(n, 7, rng);
    std::vector<double> fast, naive;
    dense::pairwise_sq_dist(x, fast);
    reference::pairwise_sq_dist_naive(x, naive);
    ASSERT_EQ(fast.size(), n * n);
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_NEAR(fast[i], naive[i], 1e-12) << "n=" << n << " idx=" << i;
    }
  }
}

TEST(DensePairwiseSqDist, ZeroDiagonalAndDuplicateRowsNonNegative) {
  // The Gram identity can go fractionally negative for duplicates; the
  // kernel must clamp, and the diagonal must be exactly zero.
  dense::Matrix x(4, 3);
  for (std::size_t i = 0; i < 4; ++i) {
    x.at(i, 0) = 0.1234567;
    x.at(i, 1) = -7.654321;
    x.at(i, 2) = 3.1415926;
  }
  std::vector<double> sq;
  dense::pairwise_sq_dist(x, sq);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(sq[i * 4 + i], 0.0);
    for (std::size_t j = 0; j < 4; ++j) EXPECT_GE(sq[i * 4 + j], 0.0);
  }
}

TEST(DenseStandardize, WelfordMatchesTwoPassReference) {
  // The one-pass Welford moments must agree with the textbook two-pass
  // mean/variance to floating-point accuracy (the satellite fix replaced
  // the two-pass loop in ted.cpp with this kernel).
  Rng rng(6);
  dense::Matrix x = random_matrix(200, 4, rng);
  dense::Matrix two_pass = x;
  const dense::ColumnMoments moments = dense::standardize_columns(x);
  std::vector<double> column(two_pass.rows);
  for (std::size_t c = 0; c < two_pass.cols; ++c) {
    for (std::size_t r = 0; r < two_pass.rows; ++r) {
      column[r] = two_pass.at(r, c);
    }
    EXPECT_NEAR(moments.mean[c], mean(column), 1e-12);
    EXPECT_NEAR(moments.stddev[c], stddev(column), 1e-12);
  }
  // And the transformed columns must match the two-pass z-scores.
  reference::two_pass_standardize(two_pass);
  for (std::size_t i = 0; i < x.data.size(); ++i) {
    EXPECT_NEAR(x.data[i], two_pass.data[i], 1e-10);
  }
}

TEST(DenseStandardize, ConstantColumnZeroed) {
  dense::Matrix x(3, 2);
  x.at(0, 0) = x.at(1, 0) = x.at(2, 0) = 5.0;
  x.at(0, 1) = 1.0;
  x.at(1, 1) = 2.0;
  x.at(2, 1) = 3.0;
  dense::standardize_columns(x);
  for (std::size_t r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(x.at(r, 0), 0.0);
  EXPECT_LT(x.at(0, 1), 0.0);
  EXPECT_GT(x.at(2, 1), 0.0);
}

TEST(DenseStandardize, EmptyAndSingleRow) {
  dense::Matrix empty;
  const auto m0 = dense::standardize_columns(empty);
  EXPECT_TRUE(m0.mean.empty());

  dense::Matrix one(1, 3);
  one.at(0, 0) = 4.0;
  const auto m1 = dense::standardize_columns(one);
  EXPECT_DOUBLE_EQ(m1.mean[0], 4.0);
  // A single row has zero variance: every column zeroes out.
  for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(one.at(0, c), 0.0);
}

TEST(DenseRowSqNorms, MatchesManualSum) {
  Rng rng(7);
  const std::size_t n = 9;
  std::vector<double> k(n * n);
  for (auto& v : k) v = rng.next_double(-1.0, 1.0);
  std::vector<double> norms(n);
  dense::row_sq_norms(k.data(), n, norms.data());
  for (std::size_t i = 0; i < n; ++i) {
    double expected = 0.0;
    for (std::size_t j = 0; j < n; ++j) expected += k[i * n + j] * k[i * n + j];
    EXPECT_DOUBLE_EQ(norms[i], expected);
  }
}

TEST(DenseDeflateRankOne, MatchesScalarUpdateAndRefreshesNorms) {
  Rng rng(8);
  const std::size_t n = 12;
  std::vector<double> k(n * n);
  for (auto& v : k) v = rng.next_double(-1.0, 1.0);
  std::vector<double> expected = k;
  std::vector<double> col(n);
  for (std::size_t u = 0; u < n; ++u) col[u] = k[3 * n + u];
  const double denom = 0.7;
  for (std::size_t i = 0; i < n; ++i) {
    const double ci = col[i] / denom;
    for (std::size_t j = 0; j < n; ++j) expected[i * n + j] -= ci * col[j];
  }
  std::vector<double> norms(n, -1.0);
  dense::row_sq_norms(k.data(), n, norms.data());
  dense::deflate_rank_one(k.data(), n, col.data(), denom, norms.data());
  for (std::size_t i = 0; i < n * n; ++i) EXPECT_DOUBLE_EQ(k[i], expected[i]);
  for (std::size_t i = 0; i < n; ++i) {
    double fresh = 0.0;
    for (std::size_t j = 0; j < n; ++j) fresh += k[i * n + j] * k[i * n + j];
    EXPECT_DOUBLE_EQ(norms[i], fresh);
  }
}

}  // namespace
}  // namespace aal
