#include "ml/flat_forest.hpp"

#include <algorithm>

#include "support/thread_pool.hpp"

namespace aal {

namespace {

/// Rows walked in lockstep per tree visit. The block's compare-and-step
/// chains are independent, so a larger block gives the out-of-order core
/// more latency to hide; 64 is past the knee on current x86 (the cursor
/// and accumulator arrays still fit comfortably in L1).
constexpr std::size_t kRowBlock = 64;

/// Below this many rows the pool's dispatch overhead beats the fan-out;
/// thresholds affect wall-clock only, never results (rows are independent).
constexpr std::size_t kParallelMinRows = 4 * kRowBlock;

/// Trees walked in lockstep by the single-row predict. The tuner's default
/// 60-tree forest fits one block; the cursor array stays on the stack.
constexpr std::size_t kTreeBlock = 64;

/// Lockstep walk of `nr` rows (nr <= NB, NB a compile-time constant so the
/// arrays sit on the stack and the inner loops have vectorizer-friendly
/// bounds) against every tree of the forest.
///
/// The step is branchless on purpose: `right + (left - right) * (v <= thr)`
/// selects the child with integer arithmetic instead of a data-dependent
/// branch, which at ~50% split entropy would mispredict constantly and
/// serialize the walk (measured 2x on the full engine). The select is
/// decision-identical to the scalar `v <= thr ? left : right`: for splits
/// the flag picks left/right exactly (NaN compares false -> right, same as
/// the ternary), and for leaves left == right collapses the product to the
/// self-loop regardless of the flag.
template <std::size_t NB>
void walk_block(const FlatNode* nodes, const std::int32_t* roots,
                const std::int32_t* depths, std::size_t num_trees,
                const double* x, std::size_t cols, double lr, double base,
                double scale, std::size_t begin, std::size_t nr,
                double* out) {
  double acc[NB];
  std::int32_t idx[NB];
  std::fill(acc, acc + nr, 0.0);
  const double* const xb = x + begin * cols;
  for (std::size_t t = 0; t < num_trees; ++t) {
    const std::int32_t root = roots[t];
    const int levels = depths[t];
    std::fill(idx, idx + nr, root);
    for (int level = 0; level < levels; ++level) {
      for (std::size_t r = 0; r < nr; ++r) {
        const FlatNode& n = nodes[static_cast<std::size_t>(idx[r])];
        const double v = xb[r * cols + static_cast<std::size_t>(n.feature)];
        const auto le = static_cast<std::int32_t>(v <= n.thr_or_value);
        idx[r] = n.right + (n.left - n.right) * le;
      }
    }
    for (std::size_t r = 0; r < nr; ++r) {
      // Same expression shape as the scalar reference: acc += lr * leaf.
      acc[r] += lr * nodes[static_cast<std::size_t>(idx[r])].thr_or_value;
    }
  }
  for (std::size_t r = 0; r < nr; ++r) out[begin + r] = base + scale * acc[r];
}

}  // namespace

FlatTree FlatTree::flatten(const DecisionTree& tree) {
  AAL_CHECK(tree.fitted(), "cannot flatten an unfitted tree");
  FlatTree out;
  out.nodes_.resize(tree.num_nodes());

  // BFS from the DFS root; enqueuing left then right makes both children of
  // every split adjacent (right == left + 1).
  std::vector<std::int32_t> src;     // src[i] = DFS index of flat node i
  std::vector<std::int32_t> level;   // BFS depth of flat node i
  src.reserve(tree.num_nodes());
  level.reserve(tree.num_nodes());
  src.push_back(0);
  level.push_back(0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    const TreeNodeSpec n = tree.node_spec(static_cast<std::size_t>(src[i]));
    out.depth_ = std::max(out.depth_, level[i]);
    if (n.feature < 0) {
      const auto self = static_cast<std::int32_t>(i);
      out.nodes_[i] = FlatNode{n.value, 0, self, self};
    } else {
      const auto left = static_cast<std::int32_t>(src.size());
      src.push_back(n.left);
      level.push_back(level[i] + 1);
      src.push_back(n.right);
      level.push_back(level[i] + 1);
      out.nodes_[i] = FlatNode{n.threshold, n.feature, left, left + 1};
      out.min_width_ = std::max(out.min_width_, n.feature + 1);
    }
  }
  AAL_ASSERT(src.size() == tree.num_nodes(),
             "flatten visited a different node count than the source tree");
  return out;
}

DecisionTree FlatTree::unflatten() const {
  AAL_CHECK(!nodes_.empty(), "cannot unflatten an empty FlatTree");
  // Rebuild in DFS preorder, the layout fit_binned produces.
  std::vector<TreeNodeSpec> specs;
  specs.reserve(nodes_.size());
  auto rec = [&](auto&& self, std::int32_t flat_idx) -> std::int32_t {
    const FlatNode& n = nodes_[static_cast<std::size_t>(flat_idx)];
    const auto id = static_cast<std::int32_t>(specs.size());
    specs.push_back(TreeNodeSpec{});
    if (n.left == flat_idx) {  // leaf (self-loop)
      specs[static_cast<std::size_t>(id)] =
          TreeNodeSpec{-1, 0.0, n.thr_or_value, -1, -1};
    } else {
      const std::int32_t left = self(self, n.left);
      const std::int32_t right = self(self, n.right);
      specs[static_cast<std::size_t>(id)] =
          TreeNodeSpec{n.feature, n.thr_or_value, 0.0, left, right};
    }
    return id;
  };
  rec(rec, 0);
  return DecisionTree::from_node_specs(specs);
}

double FlatTree::predict(std::span<const double> features) const {
  AAL_CHECK(!nodes_.empty(), "predict on an empty FlatTree");
  std::int32_t idx = 0;
  for (;;) {
    const FlatNode& n = nodes_[static_cast<std::size_t>(idx)];
    if (n.left == idx) return n.thr_or_value;
    AAL_CHECK(static_cast<std::size_t>(n.feature) < features.size(),
              "feature vector narrower than the tree's feature space");
    idx = features[static_cast<std::size_t>(n.feature)] <= n.thr_or_value
              ? n.left
              : n.right;
  }
}

FlatForest FlatForest::build(std::span<const DecisionTree> trees, double base,
                             double scale, double learning_rate) {
  FlatForest out;
  out.base_ = base;
  out.scale_ = scale;
  out.learning_rate_ = learning_rate;
  std::size_t total_nodes = 0;
  for (const DecisionTree& t : trees) total_nodes += t.num_nodes();
  out.nodes_.reserve(total_nodes);
  out.roots_.reserve(trees.size());
  out.depths_.reserve(trees.size());

  for (const DecisionTree& t : trees) {
    const FlatTree flat = FlatTree::flatten(t);
    const auto offset = static_cast<std::int32_t>(out.nodes_.size());
    out.roots_.push_back(offset);
    out.depths_.push_back(flat.depth_);
    for (FlatNode n : flat.nodes_) {
      n.left += offset;  // leaf self-loops shift with the node itself
      n.right += offset;
      out.nodes_.push_back(n);
    }
    out.min_width_ = std::max(out.min_width_, flat.min_width_);
    out.max_depth_ = std::max(out.max_depth_, flat.depth_);
  }
  return out;
}

double FlatForest::predict(std::span<const double> features) const {
  // A row too narrow for some split keeps the checked per-tree walk: it
  // throws exactly when a path the row takes reaches a missing feature, so
  // narrow rows fail or succeed as they always did.
  if (features.size() < static_cast<std::size_t>(min_width_)) {
    return predict_checked(features);
  }
  // Tree-lockstep walk: every tree of a block advances one level per pass,
  // so the passes' loads are independent of each other instead of one
  // dependent chain per tree, and the child select is the branchless one
  // walk_block uses. The walk runs to the forest's deepest level (leaves
  // self-loop), then sums `acc += lr * leaf` in tree order, the reference's
  // expression sequence, so the result is bitwise the per-tree sum. A
  // depth-0 forest makes no pass and loads no feature.
  const FlatNode* const nodes = nodes_.data();
  const std::int32_t* const roots = roots_.data();
  const double* const x = features.data();
  const double lr = learning_rate_;
  const std::size_t num_trees = roots_.size();
  double acc = 0.0;
  std::int32_t idx[kTreeBlock];
  for (std::size_t begin = 0; begin < num_trees; begin += kTreeBlock) {
    const std::size_t nt = std::min(kTreeBlock, num_trees - begin);
    std::copy(roots + begin, roots + begin + nt, idx);
    for (int level = 0; level < max_depth_; ++level) {
      for (std::size_t t = 0; t < nt; ++t) {
        const FlatNode& n = nodes[static_cast<std::size_t>(idx[t])];
        const double v = x[static_cast<std::size_t>(n.feature)];
        const auto le = static_cast<std::int32_t>(v <= n.thr_or_value);
        idx[t] = n.right + (n.left - n.right) * le;
      }
    }
    for (std::size_t t = 0; t < nt; ++t) {
      acc += lr * nodes[static_cast<std::size_t>(idx[t])].thr_or_value;
    }
  }
  return base_ + scale_ * acc;
}

double FlatForest::predict_checked(std::span<const double> features) const {
  double acc = 0.0;
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    std::int32_t idx = roots_[t];
    for (;;) {
      const FlatNode& n = nodes_[static_cast<std::size_t>(idx)];
      if (n.left == idx) {
        acc += learning_rate_ * n.thr_or_value;
        break;
      }
      AAL_CHECK(static_cast<std::size_t>(n.feature) < features.size(),
                "feature vector narrower than the forest's feature space");
      idx = features[static_cast<std::size_t>(n.feature)] <= n.thr_or_value
                ? n.left
                : n.right;
    }
  }
  return base_ + scale_ * acc;
}

void FlatForest::predict_batch(std::span<const double> features,
                               std::size_t rows,
                               std::span<double> out) const {
  AAL_CHECK(out.size() >= rows, "output span narrower than the batch");
  if (rows == 0) return;
  AAL_CHECK(features.size() % rows == 0,
            "feature span is not a whole number of rows");
  const std::size_t cols = features.size() / rows;
  AAL_CHECK(cols >= static_cast<std::size_t>(min_width_),
            "feature matrix narrower than the forest's feature space");

  // Hoist everything the kernel touches into locals: the walk stores into a
  // cursor array every step, and letting the compiler prove those stores
  // cannot alias the member vectors' data pointers is what keeps the loads
  // hoisted out of the inner loop.
  const FlatNode* const nodes = nodes_.data();
  const std::int32_t* const roots = roots_.data();
  const std::int32_t* const depths = depths_.data();
  const std::size_t num_trees = roots_.size();
  const double* const x = features.data();
  const double lr = learning_rate_;
  const double base = base_;
  const double scale = scale_;
  double* const o = out.data();

  const std::size_t num_blocks = (rows + kRowBlock - 1) / kRowBlock;
  const auto run_one = [=](std::size_t blk) {
    const std::size_t begin = blk * kRowBlock;
    walk_block<kRowBlock>(nodes, roots, depths, num_trees, x, cols, lr, base,
                          scale, begin, std::min(kRowBlock, rows - begin), o);
  };
  if (rows >= kParallelMinRows) {
    ThreadPool::shared().parallel_for(num_blocks, run_one);
  } else {
    for (std::size_t blk = 0; blk < num_blocks; ++blk) run_one(blk);
  }
}

}  // namespace aal
