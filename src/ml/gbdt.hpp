// Gradient-boosted regression trees — the from-scratch XGBoost stand-in used
// as AutoTVM's cost model and as the paper's bootstrap evaluation functions.
//
// Squared-error boosting with shrinkage, optional row subsampling and
// feature subsampling. Targets are internally normalized (mean/std) so the
// learning rate behaves uniformly across tasks whose GFLOPS scales differ
// by orders of magnitude.
#pragma once

#include <span>
#include <vector>

#include "ml/decision_tree.hpp"
#include "ml/flat_forest.hpp"

namespace aal {

struct GbdtParams {
  int num_trees = 60;
  double learning_rate = 0.15;
  int max_depth = 5;
  int min_samples_leaf = 2;
  double row_subsample = 0.85;     // stochastic gradient boosting
  double feature_fraction = 0.9;
  std::uint64_t seed = 0xC0FFEE;
};

class Gbdt {
 public:
  void fit(const Dataset& data, const GbdtParams& params);

  /// One row through the flattened engine's tree-lockstep walk, bitwise
  /// equal to the per-tree DecisionTree::predict sum.
  double predict(std::span<const double> features) const;

  /// Batched prediction over a row-major feature matrix: out[i] receives
  /// the prediction for row i (features.size() must be rows * width, width
  /// >= the widest feature any tree splits on; out.size() >= rows). Routed
  /// through the flattened level-order engine (ml/flat_forest.hpp), bitwise
  /// identical to the per-tree reference sum (pinned by
  /// tests/ml/test_batch_predict.cpp).
  void predict_batch(std::span<const double> features, std::size_t rows,
                     std::span<double> out) const;

  /// Batch prediction convenience.
  std::vector<double> predict_many(const Dataset& data) const;

  /// Split-count feature importance: how often each feature was chosen as a
  /// split across the ensemble, normalized to sum to 1. An ensemble with no
  /// splits at all (every tree a single leaf — e.g. a constant target)
  /// carries no preference, reported as the uniform distribution so the
  /// sum-to-1 contract holds for every fitted model.
  std::vector<double> feature_importance(std::size_t num_features) const;

  bool fitted() const { return fitted_; }
  std::size_t num_trees() const { return trees_.size(); }
  const std::vector<DecisionTree>& trees() const { return trees_; }
  /// The output transform: predict = base() + scale() * sum over trees of
  /// learning_rate() * leaf, accumulated in tree order.
  double base() const { return base_; }
  double scale() const { return scale_; }
  double learning_rate() const { return learning_rate_; }

  /// The flattened scoring engine built at the end of fit().
  const FlatForest& flat_forest() const { return flat_; }

 private:
  std::vector<DecisionTree> trees_;
  FlatForest flat_;
  double base_ = 0.0;      // target mean
  double scale_ = 1.0;     // target std (>= epsilon)
  double learning_rate_ = 0.1;
  bool fitted_ = false;
};

}  // namespace aal
