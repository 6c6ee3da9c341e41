#include "ml/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/stats.hpp"

namespace aal {

void Gbdt::fit(const Dataset& data, const GbdtParams& params) {
  AAL_CHECK(!data.empty(), "cannot fit GBDT on an empty dataset");
  trees_.clear();
  learning_rate_ = params.learning_rate;

  base_ = mean(data.targets());
  scale_ = std::max(stddev(data.targets()), 1e-9);

  const std::size_t n = data.num_rows();
  // Bin once; every boosting round reuses the quantized features.
  const BinnedMatrix binned = BinnedMatrix::build(data);

  // Residuals in normalized target space.
  std::vector<double> residual(n);
  for (std::size_t i = 0; i < n; ++i) {
    residual[i] = (data.target(i) - base_) / scale_;
  }
  std::vector<double> prediction(n, 0.0);
  std::vector<double> gradient(n, 0.0);

  Rng rng(params.seed);
  DecisionTreeParams tree_params;
  tree_params.max_depth = params.max_depth;
  tree_params.min_samples_leaf = params.min_samples_leaf;
  tree_params.feature_fraction = params.feature_fraction;

  // Round-update fast path: training rows land in the leaf the build
  // partition assigned them to, so their contribution is the recorded leaf
  // value, and out-of-sample rows route by bin thresholds. Both shortcuts
  // equal raw-threshold traversal only when no data value sits exactly on a
  // bin edge (strict_edges) — otherwise every row walks the tree on raw
  // features (the reference fit, pinned by tests/ml/test_gbdt_fit_equiv.cpp).
  const bool fast_update = binned.strict_edges();
  std::vector<std::pair<std::size_t, double>> leaf_rows;
  std::vector<std::uint8_t> covered;

  for (int t = 0; t < params.num_trees; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      gradient[i] = residual[i] - prediction[i];
    }

    // Rows for this round (without replacement — stochastic boosting).
    std::vector<std::size_t> rows;
    if (params.row_subsample < 1.0 && n > 8) {
      const auto k = static_cast<std::size_t>(std::max(
          4.0, std::floor(params.row_subsample * static_cast<double>(n))));
      rows = rng.sample_without_replacement(n, k);
    } else {
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), std::size_t{0});
    }

    DecisionTree tree;
    tree.fit_binned(binned, gradient, std::move(rows), tree_params, rng,
                    fast_update ? &leaf_rows : nullptr);

    if (fast_update) {
      covered.assign(n, 0);
      for (const auto& [r, leaf] : leaf_rows) {
        prediction[r] += learning_rate_ * leaf;
        covered[r] = 1;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (!covered[i]) {
          prediction[i] += learning_rate_ * tree.predict_binned(binned, i);
        }
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        prediction[i] += learning_rate_ * tree.predict(data.row(i));
      }
    }
    trees_.push_back(std::move(tree));
  }
  flat_ = FlatForest::build(trees_, base_, scale_, learning_rate_);
  fitted_ = true;
}

double Gbdt::predict(std::span<const double> features) const {
  AAL_CHECK(fitted_, "predict on an unfitted GBDT");
  return flat_.predict(features);
}

void Gbdt::predict_batch(std::span<const double> features, std::size_t rows,
                         std::span<double> out) const {
  AAL_CHECK(fitted_, "predict_batch on an unfitted GBDT");
  AAL_CHECK(out.size() >= rows, "output span narrower than the batch");
  if (rows == 0) return;
  AAL_CHECK(features.size() % rows == 0,
            "feature span is not a whole number of rows");
  flat_.predict_batch(features, rows, out);
}

std::vector<double> Gbdt::predict_many(const Dataset& data) const {
  std::vector<double> out;
  out.reserve(data.num_rows());
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    out.push_back(predict(data.row(i)));
  }
  return out;
}

std::vector<double> Gbdt::feature_importance(
    std::size_t num_features) const {
  AAL_CHECK(fitted_, "feature_importance on an unfitted GBDT");
  std::vector<double> counts(num_features, 0.0);
  for (const DecisionTree& tree : trees_) {
    tree.accumulate_split_counts(counts);
  }
  double total = 0.0;
  for (double c : counts) total += c;
  if (total > 0.0) {
    for (double& c : counts) c /= total;
  } else if (num_features > 0) {
    // Zero splits anywhere (every tree a single leaf): no feature carries
    // information, so the importance is uniform — keeping the length and
    // the sum-to-1 contract instead of an all-zero vector.
    const double uniform = 1.0 / static_cast<double>(num_features);
    for (double& c : counts) c = uniform;
  }
  return counts;
}

}  // namespace aal
