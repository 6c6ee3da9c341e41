// Flattened, batch-oriented GBT scoring engine.
//
// A fitted DecisionTree stores its nodes in DFS order behind pointer-ish
// int32 links; fine for one prediction, hostile to scoring 512 candidates
// against a 60-tree ensemble every BAO iteration. FlatTree re-lays a tree
// out in level order (BFS) over contiguous 24-byte nodes — both children of
// a split are adjacent, leaves self-loop — so a whole ensemble walks blocks
// of rows tree-by-tree in lockstep with branchless arithmetic-select steps
// (`idx = right + (left - right) * (x <= thr)`) and the node array resident
// in cache. A single row (SA's one-config-at-a-time scoring) walks the
// other way round: all trees in lockstep, one level per pass.
//
// The engine is pinned bitwise-identical to the scalar reference: per row
// the leaf values are accumulated in tree order as `acc += lr * leaf` and
// finished as `base + scale * acc`, exactly the expression sequence of the
// per-tree DecisionTree::predict sum (tests/reference/reference_impls.hpp,
// pinned by tests/ml/test_batch_predict.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/decision_tree.hpp"

namespace aal {

/// One level-order node. Splits: go to `left` when x[feature] <=
/// thr_or_value, else `right` (right == left + 1 by construction). Leaves:
/// thr_or_value is the prediction, feature is 0 (a safe dummy load) and
/// left == right == the node's own index, so a lockstep walk may keep
/// stepping past a shallow leaf without branching on depth.
struct FlatNode {
  double thr_or_value = 0.0;
  std::int32_t feature = 0;
  std::int32_t left = 0;
  std::int32_t right = 0;
};
static_assert(sizeof(FlatNode) == 24, "FlatNode layout must stay compact");

/// A single regression tree in level-order layout.
class FlatTree {
 public:
  FlatTree() = default;

  /// Level-order copy of a fitted tree (node count preserved).
  static FlatTree flatten(const DecisionTree& tree);

  /// Inverse of flatten: rebuilds a DecisionTree in its canonical DFS
  /// preorder layout. flatten(unflatten(t)) reproduces t exactly.
  DecisionTree unflatten() const;

  /// Scalar reference walk, bitwise-identical to DecisionTree::predict.
  double predict(std::span<const double> features) const;

  const std::vector<FlatNode>& nodes() const { return nodes_; }
  std::size_t num_nodes() const { return nodes_.size(); }
  /// Edges on the longest root-to-leaf path (0 for a single-leaf tree).
  int depth() const { return depth_; }
  /// Minimum feature-vector width this tree can route (max feature + 1).
  std::int32_t min_feature_width() const { return min_width_; }

 private:
  friend class FlatForest;
  std::vector<FlatNode> nodes_;
  int depth_ = 0;
  std::int32_t min_width_ = 0;
};

/// A boosted ensemble flattened into one contiguous node array (per-tree
/// roots/depths kept alongside), scoring blocks of rows tree-by-tree.
class FlatForest {
 public:
  FlatForest() = default;

  /// Flattens `trees` with the GBDT output transform
  /// y = base + scale * sum_t(learning_rate * leaf_t).
  static FlatForest build(std::span<const DecisionTree> trees, double base,
                          double scale, double learning_rate);

  bool empty() const { return roots_.empty(); }
  std::size_t num_trees() const { return roots_.size(); }
  std::size_t num_nodes() const { return nodes_.size(); }
  std::int32_t min_feature_width() const { return min_width_; }
  /// Edges on the longest root-to-leaf path of any tree (0 when every tree
  /// is a single leaf).
  int max_depth() const { return max_depth_; }

  /// One row through every tree, bitwise equal to the per-tree sum of
  /// DecisionTree::predict (same FP order as predict_batch). All trees
  /// advance one level per pass with the branchless select, down to
  /// max_depth(); a row narrower than min_feature_width() takes the checked
  /// per-tree walk instead, which throws only if a path it takes reaches a
  /// feature the row lacks.
  double predict(std::span<const double> features) const;

  /// out[i] = prediction for row i of the row-major `features` matrix
  /// (features.size() must be a multiple of rows; the row width must be
  /// >= min_feature_width()). Large batches fan out over the shared thread
  /// pool; rows are independent, so results are schedule-invariant.
  void predict_batch(std::span<const double> features, std::size_t rows,
                     std::span<double> out) const;

 private:
  /// Per-tree walk with a width check before every feature load.
  double predict_checked(std::span<const double> features) const;

  std::vector<FlatNode> nodes_;        // all trees, concatenated
  std::vector<std::int32_t> roots_;    // per-tree root index into nodes_
  std::vector<std::int32_t> depths_;   // per-tree level count (edges)
  double base_ = 0.0;
  double scale_ = 1.0;
  double learning_rate_ = 0.0;
  std::int32_t min_width_ = 0;
  int max_depth_ = 0;
};

}  // namespace aal
