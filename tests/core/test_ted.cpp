#include "core/ted.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "reference/reference_impls.hpp"
#include "support/rng.hpp"

namespace aal {
namespace {

std::vector<std::vector<double>> random_features(std::size_t n, std::size_t d,
                                                 Rng& rng) {
  std::vector<std::vector<double>> out(n, std::vector<double>(d));
  for (auto& row : out) {
    for (auto& v : row) v = rng.next_double(-1.0, 1.0);
  }
  return out;
}

double min_pairwise_distance(const std::vector<std::vector<double>>& features,
                             const std::vector<std::size_t>& subset) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < subset.size(); ++i) {
    for (std::size_t j = i + 1; j < subset.size(); ++j) {
      double acc = 0.0;
      for (std::size_t c = 0; c < features[subset[i]].size(); ++c) {
        const double d = features[subset[i]][c] - features[subset[j]][c];
        acc += d * d;
      }
      best = std::min(best, std::sqrt(acc));
    }
  }
  return best;
}

TEST(StandardizeColumns, ZeroMeanUnitVariance) {
  Rng rng(1);
  auto x = random_features(100, 3, rng);
  standardize_columns(x);
  for (std::size_t c = 0; c < 3; ++c) {
    double sum = 0.0, sum_sq = 0.0;
    for (const auto& row : x) {
      sum += row[c];
      sum_sq += row[c] * row[c];
    }
    EXPECT_NEAR(sum / 100.0, 0.0, 1e-9);
    EXPECT_NEAR(sum_sq / 100.0, 1.0, 1e-9);
  }
}

TEST(StandardizeColumns, ConstantColumnBecomesZero) {
  std::vector<std::vector<double>> x{{5.0, 1.0}, {5.0, 2.0}, {5.0, 3.0}};
  standardize_columns(x);
  for (const auto& row : x) EXPECT_DOUBLE_EQ(row[0], 0.0);
}

TEST(TedSelect, ReturnsRequestedCount) {
  Rng rng(2);
  const auto features = random_features(60, 4, rng);
  const auto selected = ted_select(features, 10);
  EXPECT_EQ(selected.size(), 10u);
  std::set<std::size_t> unique(selected.begin(), selected.end());
  EXPECT_EQ(unique.size(), 10u);
  for (std::size_t i : selected) EXPECT_LT(i, 60u);
}

TEST(TedSelect, AllWhenMExceedsN) {
  Rng rng(3);
  const auto features = random_features(5, 2, rng);
  const auto selected = ted_select(features, 10);
  EXPECT_EQ(selected.size(), 5u);
}

TEST(TedSelect, EmptyInput) {
  EXPECT_TRUE(ted_select(std::vector<std::vector<double>>{}, 5).empty());
  EXPECT_TRUE(ted_select(dense::Matrix{}, 5).empty());
}

TEST(TedSelect, Deterministic) {
  Rng rng(4);
  const auto features = random_features(50, 3, rng);
  EXPECT_EQ(ted_select(features, 8), ted_select(features, 8));
}

TEST(TedSelect, MoreDiverseThanRandom) {
  // TED's whole point: its m-subset scatters wider than random subsets.
  Rng rng(5);
  const auto features = random_features(200, 4, rng);
  const auto ted = ted_select(features, 16);
  const double ted_spread = min_pairwise_distance(features, ted);

  double random_spread = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const auto subset = rng.sample_without_replacement(200, 16);
    random_spread += min_pairwise_distance(features, subset);
  }
  random_spread /= trials;
  EXPECT_GT(ted_spread, random_spread);
}

TEST(TedSelect, FirstPickIsMaxNormScore) {
  // With the literal distance kernel and mu large, the score is
  // ~ ||K_v||^2 / mu: the first selected point must maximize the column
  // norm of the distance matrix (i.e., be the most "spread out" point).
  Rng rng(6);
  auto features = random_features(40, 3, rng);
  TedParams params;
  params.kernel = TedKernel::kEuclideanDistance;
  params.mu = 1e6;
  const auto selected = ted_select(features, 1, params);
  ASSERT_EQ(selected.size(), 1u);

  auto x = features;
  standardize_columns(x);
  double best_norm = -1.0;
  std::size_t best_idx = 0;
  for (std::size_t v = 0; v < x.size(); ++v) {
    double norm = 0.0;
    for (std::size_t u = 0; u < x.size(); ++u) {
      double acc = 0.0;
      for (std::size_t c = 0; c < x[v].size(); ++c) {
        const double d = x[v][c] - x[u][c];
        acc += d * d;
      }
      norm += acc;  // distance^2 summed = ||K_v||^2 up to sqrt pairing
    }
    if (norm > best_norm) {
      best_norm = norm;
      best_idx = v;
    }
  }
  EXPECT_EQ(selected[0], best_idx);
}

TEST(TedSelect, RbfKernelVariantWorks) {
  Rng rng(7);
  const auto features = random_features(80, 4, rng);
  TedParams params;
  params.kernel = TedKernel::kRbf;
  const auto selected = ted_select(features, 12, params);
  EXPECT_EQ(selected.size(), 12u);
  std::set<std::size_t> unique(selected.begin(), selected.end());
  EXPECT_EQ(unique.size(), 12u);
  // RBF selection should also beat random diversity.
  const double spread = min_pairwise_distance(features, selected);
  double random_spread = 0.0;
  for (int t = 0; t < 20; ++t) {
    random_spread +=
        min_pairwise_distance(features, rng.sample_without_replacement(80, 12));
  }
  EXPECT_GT(spread, random_spread / 20.0);
}

TEST(TedSelect, RbfExplicitSigma) {
  Rng rng(8);
  const auto features = random_features(30, 2, rng);
  TedParams params;
  params.kernel = TedKernel::kRbf;
  params.rbf_sigma = 0.5;
  EXPECT_EQ(ted_select(features, 5, params).size(), 5u);
}

TEST(TedSelect, RaggedMatrixRejected) {
  std::vector<std::vector<double>> bad{{1.0, 2.0}, {1.0}};
  EXPECT_THROW(ted_select(bad, 1), InvalidArgument);
}

TEST(TedSelect, LiteralDistanceKernelAtLargeNMatchesScalarReference) {
  // The literal distance matrix is not PSD: the lazy deflation's norm
  // update overflows into NaN scores on it ("TED failed to select a
  // candidate"), which once happened for every n above the old size
  // threshold. The kernel type now picks the path, at any n.
  Rng rng(22);
  const auto features = random_features(1100, 5, rng);
  TedParams params;
  params.kernel = TedKernel::kEuclideanDistance;
  EXPECT_EQ(ted_select(features, 12, params),
            reference::ted_select(features, 12, params));
}

TEST(TedSelect, DuplicatePointsHandled) {
  // Identical rows make the distance matrix rank-deficient; selection must
  // still return m distinct *indices*.
  std::vector<std::vector<double>> features(10, {1.0, 2.0});
  features[7] = {5.0, -1.0};
  const auto selected = ted_select(features, 3);
  EXPECT_EQ(selected.size(), 3u);
  std::set<std::size_t> unique(selected.begin(), selected.end());
  EXPECT_EQ(unique.size(), 3u);
}

}  // namespace
}  // namespace aal
