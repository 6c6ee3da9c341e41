// Scalar-vs-batched equivalence harness for the flattened scoring engine.
//
// The flat engine (ml/flat_forest.hpp) — the batched walk and the single-
// row tree-lockstep walk behind Gbdt::predict — is only allowed to exist
// because it is bitwise-identical to an explicit per-tree
// DecisionTree::predict sum; these tests pin that contract over randomized
// forests, synthesized adversarial trees and feature matrices seeded with
// ±0, denormals, infinities, NaNs and values far outside the training
// range. They also pin the flattened layout's
// structural invariants (level order, child adjacency, leaf self-loops) and
// the flatten/unflatten round trip.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ml/flat_forest.hpp"
#include "ml/gbdt.hpp"
#include "reference/reference_impls.hpp"
#include "support/rng.hpp"

namespace aal {
namespace {

/// Bit-level equality: distinguishes +0.0 from -0.0 and treats identical
/// NaN payloads as equal, which EXPECT_DOUBLE_EQ cannot.
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits " << std::hex
         << std::bit_cast<std::uint64_t>(a) << " vs "
         << std::bit_cast<std::uint64_t>(b) << ")";
}

Dataset random_dataset(std::size_t rows, std::size_t dim, Rng& rng) {
  Dataset d(dim);
  std::vector<double> x(dim);
  for (std::size_t i = 0; i < rows; ++i) {
    for (double& v : x) v = rng.next_double(-4.0, 4.0);
    double y = 0.0;
    for (std::size_t f = 0; f < dim; ++f) {
      y += (f % 2 == 0 ? 1.0 : -0.5) * x[f] * x[(f + 1) % dim];
    }
    d.add_row(x, y + rng.next_gaussian(0.0, 0.1));
  }
  return d;
}

/// A feature matrix whose entries are mostly in-range but sprinkled with
/// every IEEE edge case the tree comparison `x <= thr` can meet.
std::vector<double> adversarial_matrix(std::size_t rows, std::size_t cols,
                                       Rng& rng) {
  static const double kSpecials[] = {
      +0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 4.0,  // denormal
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      1e300,   // far outside any training range
      -1e300,
      std::numeric_limits<double>::epsilon(),
  };
  std::vector<double> m(rows * cols);
  for (double& v : m) {
    if (rng.next_double() < 0.25) {
      v = kSpecials[rng.next_index(std::size(kSpecials))];
    } else {
      v = rng.next_double(-8.0, 8.0);
    }
  }
  return m;
}

/// Random tree synthesized directly from node specs (bypassing fit), so the
/// suite also covers shapes fitting never produces: single leaves, maximally
/// unbalanced chains, thresholds at ±0 and denormals.
std::vector<TreeNodeSpec> random_specs(std::size_t dim, int max_depth,
                                       Rng& rng) {
  std::vector<TreeNodeSpec> specs;
  auto rec = [&](auto&& self, int depth) -> std::int32_t {
    const auto id = static_cast<std::int32_t>(specs.size());
    specs.push_back(TreeNodeSpec{});
    const bool leaf = depth >= max_depth || rng.next_double() < 0.3;
    if (leaf) {
      static const double kLeafSpecials[] = {
          0.0, -0.0, std::numeric_limits<double>::denorm_min(), 1e18, -1e-18};
      const double value = rng.next_double() < 0.3
                               ? kLeafSpecials[rng.next_index(5)]
                               : rng.next_double(-100.0, 100.0);
      specs[static_cast<std::size_t>(id)] =
          TreeNodeSpec{-1, 0.0, value, -1, -1};
    } else {
      static const double kThrSpecials[] = {
          0.0, -0.0, std::numeric_limits<double>::denorm_min(), 1e300};
      const double thr = rng.next_double() < 0.25
                             ? kThrSpecials[rng.next_index(4)]
                             : rng.next_double(-5.0, 5.0);
      const auto feature = static_cast<int>(rng.next_index(dim));
      const std::int32_t left = self(self, depth + 1);
      const std::int32_t right = self(self, depth + 1);
      specs[static_cast<std::size_t>(id)] =
          TreeNodeSpec{feature, thr, 0.0, left, right};
    }
    return id;
  };
  rec(rec, 0);
  return specs;
}

// The audit reference every flat entry point is compared with: the
// explicit per-tree DecisionTree::predict sum in tree order.
using reference::per_tree_sum;

// ---------------------------------------------------------------------------
// Bitwise equivalence: fitted forests

TEST(BatchPredict, FittedForestsMatchScalarBitwise) {
  Rng rng(101);
  // Row counts straddle the engine's 64-row block size and its parallel
  // fan-out threshold (256 rows; exercised when the shared pool has more
  // than one thread, as on multi-core CI).
  const std::size_t kRowCounts[] = {1, 2, 15, 16, 17, 63, 64, 65, 130, 300};
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t dim = 1 + rng.next_index(7);
    GbdtParams params;
    params.num_trees = 1 + static_cast<int>(rng.next_index(40));
    params.max_depth = 1 + static_cast<int>(rng.next_index(7));
    params.feature_fraction = trial % 2 == 0 ? 1.0 : 0.6;
    params.seed = 1000 + static_cast<std::uint64_t>(trial);
    Gbdt model;
    model.fit(random_dataset(120, dim, rng), params);

    for (const std::size_t rows : kRowCounts) {
      std::vector<double> m(rows * dim);
      for (double& v : m) v = rng.next_double(-10.0, 10.0);
      std::vector<double> batch(rows);
      model.predict_batch(m, rows, batch);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::span<const double> row{m.data() + r * dim, dim};
        const double expected = per_tree_sum(model, row);
        EXPECT_TRUE(bits_equal(batch[r], expected))
            << "trial " << trial << " rows " << rows << " row " << r;
        EXPECT_TRUE(bits_equal(model.predict(row), expected))
            << "trial " << trial << " rows " << rows << " row " << r;
      }
    }
  }
}

TEST(BatchPredict, AdversarialValuesMatchScalarBitwise) {
  Rng rng(202);
  const std::size_t dim = 4;
  Gbdt model;
  GbdtParams params;
  params.num_trees = 20;
  model.fit(random_dataset(150, dim, rng), params);

  const std::size_t rows = 96;  // crosses the parallel fan-out threshold
  const std::vector<double> m = adversarial_matrix(rows, dim, rng);
  std::vector<double> batch(rows);
  model.predict_batch(m, rows, batch);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<const double> row{m.data() + r * dim, dim};
    const double expected = per_tree_sum(model, row);
    EXPECT_TRUE(bits_equal(batch[r], expected)) << "row " << r;
    EXPECT_TRUE(bits_equal(model.predict(row), expected)) << "row " << r;
  }
}

TEST(BatchPredict, WideMatrixRoutesOnlyTreeFeatures) {
  // The batch row width may exceed the forest's feature space (candidate
  // featurization can carry columns no tree ever split on); extra columns
  // must not perturb routing.
  Rng rng(303);
  const std::size_t dim = 3;
  Gbdt model;
  model.fit(random_dataset(100, dim, rng), GbdtParams{});

  const std::size_t wide = dim + 4;
  const std::size_t rows = 20;
  std::vector<double> m(rows * wide, std::numeric_limits<double>::quiet_NaN());
  std::vector<double> narrow(rows * dim);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t f = 0; f < dim; ++f) {
      const double v = rng.next_double(-4.0, 4.0);
      m[r * wide + f] = v;
      narrow[r * dim + f] = v;
    }
  }
  std::vector<double> batch_wide(rows), batch_narrow(rows);
  model.predict_batch(m, rows, batch_wide);
  model.predict_batch(narrow, rows, batch_narrow);
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(bits_equal(batch_wide[r], batch_narrow[r])) << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// Bitwise equivalence: synthesized adversarial trees

TEST(BatchPredict, SynthesizedTreesMatchScalarBitwise) {
  Rng rng(404);
  const std::size_t dim = 5;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<DecisionTree> trees;
    const std::size_t num_trees = 1 + rng.next_index(8);
    for (std::size_t t = 0; t < num_trees; ++t) {
      const auto specs =
          random_specs(dim, 1 + static_cast<int>(rng.next_index(8)), rng);
      trees.push_back(DecisionTree::from_node_specs(specs));
    }
    const double base = rng.next_double(-50.0, 50.0);
    const double scale = rng.next_double(0.1, 10.0);
    const double lr = rng.next_double(0.01, 1.0);
    const FlatForest forest = FlatForest::build(trees, base, scale, lr);

    const std::size_t rows = 40;
    const std::vector<double> m = adversarial_matrix(rows, dim, rng);
    std::vector<double> batch(rows);
    forest.predict_batch(m, rows, batch);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::span<const double> row{m.data() + r * dim, dim};
      // The scalar reference recomputed from the source trees, with the
      // exact accumulation order the engine promises.
      const double expected = per_tree_sum(trees, base, scale, lr, row);
      EXPECT_TRUE(bits_equal(batch[r], expected))
          << "trial " << trial << " row " << r;
      EXPECT_TRUE(bits_equal(forest.predict(row), expected))
          << "trial " << trial << " row " << r;
    }
  }
}

TEST(BatchPredict, SingleLeafTreeEverywhere) {
  const TreeNodeSpec leaf{-1, 0.0, 3.25, -1, -1};
  std::vector<DecisionTree> trees;
  trees.push_back(DecisionTree::from_node_specs({&leaf, 1}));
  const FlatForest forest = FlatForest::build(trees, 1.0, 2.0, 0.5);
  const std::vector<double> m = {0.0, 1e308, -0.0,
                                 std::numeric_limits<double>::quiet_NaN()};
  std::vector<double> out(4);
  forest.predict_batch(m, 4, out);  // 4 rows x 1 col
  for (double v : out) EXPECT_TRUE(bits_equal(v, 1.0 + 2.0 * (0.5 * 3.25)));
}

// ---------------------------------------------------------------------------
// Single-row tree-lockstep walk

TEST(SinglePredict, MixedDepthForestsMatchPerTreeSumBitwise) {
  // Tree counts straddle the walk's 64-tree block; depths mix single
  // leaves with deep chains, so shallow trees idle on their leaves while
  // deep ones still step.
  Rng rng(111);
  const std::size_t dim = 5;
  const std::size_t kTreeCounts[] = {1, 2, 7, 63, 64, 65, 130};
  for (const std::size_t num_trees : kTreeCounts) {
    std::vector<DecisionTree> trees;
    for (std::size_t t = 0; t < num_trees; ++t) {
      const int depth = static_cast<int>(rng.next_index(10));
      trees.push_back(
          DecisionTree::from_node_specs(random_specs(dim, depth, rng)));
    }
    const double base = rng.next_double(-50.0, 50.0);
    const double scale = rng.next_double(0.1, 10.0);
    const double lr = rng.next_double(0.01, 1.0);
    const FlatForest forest = FlatForest::build(trees, base, scale, lr);

    const std::size_t rows = 50;
    const std::vector<double> m = adversarial_matrix(rows, dim, rng);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::span<const double> row{m.data() + r * dim, dim};
      EXPECT_TRUE(bits_equal(forest.predict(row),
                             per_tree_sum(trees, base, scale, lr, row)))
          << "trees " << num_trees << " row " << r;
    }
  }
}

TEST(SinglePredict, IeeeEdgeFeaturesMatchPerTreeSumBitwise) {
  // Every feature of every row an IEEE edge case: NaN routes right, ±inf
  // to the far sides, denormals and ±0 against thresholds at ±0.
  Rng rng(222);
  const std::size_t dim = 3;
  const double kEdges[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           +0.0,
                           -0.0};
  Gbdt model;
  GbdtParams params;
  params.num_trees = 60;
  model.fit(random_dataset(120, dim, rng), params);
  std::vector<DecisionTree> synth;
  for (int t = 0; t < 12; ++t) {
    synth.push_back(DecisionTree::from_node_specs(random_specs(dim, 6, rng)));
  }
  const FlatForest synth_forest = FlatForest::build(synth, 0.5, 2.0, 0.3);

  std::vector<double> row(dim);
  for (const double a : kEdges) {
    for (const double b : kEdges) {
      for (const double c : kEdges) {
        row = {a, b, c};
        EXPECT_TRUE(bits_equal(model.predict(row), per_tree_sum(model, row)));
        EXPECT_TRUE(bits_equal(synth_forest.predict(row),
                               per_tree_sum(synth, 0.5, 2.0, 0.3, row)));
      }
    }
  }
}

TEST(SinglePredict, DepthZeroForestReadsNoFeature) {
  // Every tree a single leaf: the walk makes no pass, so an empty row (no
  // feature to load) scores, and equals the per-tree sum.
  const double kLeaves[] = {3.25, -0.0, 1e-300, -7.5};
  std::vector<DecisionTree> trees;
  for (const double v : kLeaves) {
    const TreeNodeSpec leaf{-1, 0.0, v, -1, -1};
    trees.push_back(DecisionTree::from_node_specs({&leaf, 1}));
  }
  const FlatForest forest = FlatForest::build(trees, 1.0, 2.0, 0.5);
  EXPECT_EQ(forest.max_depth(), 0);
  EXPECT_EQ(forest.min_feature_width(), 0);
  const std::span<const double> empty;
  EXPECT_TRUE(bits_equal(forest.predict(empty),
                         per_tree_sum(trees, 1.0, 2.0, 0.5, empty)));

  // A fitted GBDT on a constant target has only leaves too.
  Dataset constant(2);
  for (int i = 0; i < 20; ++i) {
    const double x[] = {1.0 * i, -1.0 * i};
    constant.add_row(x, 4.0);
  }
  Gbdt model;
  model.fit(constant, GbdtParams{});
  ASSERT_EQ(model.flat_forest().max_depth(), 0);
  EXPECT_TRUE(bits_equal(model.predict(empty), per_tree_sum(model, empty)));
}

TEST(SinglePredict, NarrowRowThrowsOrSucceedsLikeThePerTreeWalk) {
  // A row narrower than the forest's feature space succeeds when none of
  // its paths reaches a missing feature and throws when one does — the
  // per-tree walk's behaviour, kept for every width below the minimum.
  Rng rng(333);
  const std::size_t dim = 5;
  int threw = 0, scored = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<DecisionTree> trees;
    const std::size_t num_trees = 1 + rng.next_index(4);
    for (std::size_t t = 0; t < num_trees; ++t) {
      trees.push_back(DecisionTree::from_node_specs(
          random_specs(dim, 1 + static_cast<int>(rng.next_index(4)), rng)));
    }
    const FlatForest forest = FlatForest::build(trees, 0.0, 1.0, 0.1);
    const auto min_width =
        static_cast<std::size_t>(forest.min_feature_width());
    for (std::size_t width = 0; width < min_width; ++width) {
      std::vector<double> row(width);
      for (double& v : row) v = rng.next_double(-6.0, 6.0);
      bool reference_threw = false;
      double expected = 0.0;
      try {
        expected = per_tree_sum(trees, 0.0, 1.0, 0.1, row);
      } catch (const InvalidArgument&) {
        reference_threw = true;
      }
      if (reference_threw) {
        EXPECT_THROW(forest.predict(row), InvalidArgument)
            << "trial " << trial << " width " << width;
        ++threw;
      } else {
        EXPECT_TRUE(bits_equal(forest.predict(row), expected))
            << "trial " << trial << " width " << width;
        ++scored;
      }
    }
  }
  // Both branches must actually be exercised.
  EXPECT_GT(threw, 0);
  EXPECT_GT(scored, 0);

  // The same through a fitted model.
  Gbdt wide;
  wide.fit(random_dataset(60, 6, rng), GbdtParams{});
  ASSERT_GT(wide.flat_forest().min_feature_width(), 1);
  const std::vector<double> one = {0.0};
  bool reference_threw = false;
  try {
    (void)per_tree_sum(wide, one);
  } catch (const InvalidArgument&) {
    reference_threw = true;
  }
  if (reference_threw) {
    EXPECT_THROW(wide.predict(one), InvalidArgument);
  } else {
    EXPECT_TRUE(bits_equal(wide.predict(one), per_tree_sum(wide, one)));
  }
}

// ---------------------------------------------------------------------------
// Flattened-layout invariants

TEST(FlatLayout, LevelOrderInvariantsHold) {
  Rng rng(505);
  for (int trial = 0; trial < 8; ++trial) {
    const auto specs =
        random_specs(4, 2 + static_cast<int>(rng.next_index(7)), rng);
    const DecisionTree tree = DecisionTree::from_node_specs(specs);
    const FlatTree flat = FlatTree::flatten(tree);
    const auto& nodes = flat.nodes();

    ASSERT_EQ(nodes.size(), tree.num_nodes());
    // FlatTree counts edges, DecisionTree counts levels (single leaf = 1).
    EXPECT_EQ(flat.depth(), tree.depth() - 1);
    std::size_t leaves = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const FlatNode& n = nodes[i];
      if (n.left == static_cast<std::int32_t>(i)) {
        // Leaf: self-loop on both links, dummy feature 0.
        EXPECT_EQ(n.right, static_cast<std::int32_t>(i));
        EXPECT_EQ(n.feature, 0);
        ++leaves;
      } else {
        // Split: children are adjacent and strictly after the parent
        // (level order never links backwards).
        EXPECT_EQ(n.right, n.left + 1);
        EXPECT_GT(n.left, static_cast<std::int32_t>(i));
        EXPECT_LT(static_cast<std::size_t>(n.right), nodes.size());
        EXPECT_GE(n.feature, 0);
        EXPECT_LT(n.feature, flat.min_feature_width());
      }
    }
    // A binary tree has exactly (splits + 1) leaves.
    EXPECT_EQ(leaves, (nodes.size() + 1) / 2);
  }
}

TEST(FlatLayout, FlattenUnflattenRoundTrip) {
  Rng rng(606);
  for (int trial = 0; trial < 8; ++trial) {
    Gbdt model;
    GbdtParams params;
    params.num_trees = 3;
    params.max_depth = 1 + static_cast<int>(rng.next_index(6));
    params.seed = 42 + static_cast<std::uint64_t>(trial);
    model.fit(random_dataset(80, 3, rng), params);

    for (const DecisionTree& tree : model.trees()) {
      const FlatTree flat = FlatTree::flatten(tree);
      const DecisionTree rebuilt = flat.unflatten();
      const FlatTree reflat = FlatTree::flatten(rebuilt);

      // flatten(unflatten(t)) reproduces t exactly, field for field.
      ASSERT_EQ(reflat.num_nodes(), flat.num_nodes());
      EXPECT_EQ(reflat.depth(), flat.depth());
      EXPECT_EQ(reflat.min_feature_width(), flat.min_feature_width());
      for (std::size_t i = 0; i < flat.num_nodes(); ++i) {
        const FlatNode& a = flat.nodes()[i];
        const FlatNode& b = reflat.nodes()[i];
        EXPECT_TRUE(bits_equal(a.thr_or_value, b.thr_or_value)) << i;
        EXPECT_EQ(a.feature, b.feature) << i;
        EXPECT_EQ(a.left, b.left) << i;
        EXPECT_EQ(a.right, b.right) << i;
      }

      // And the rebuilt tree routes identically to the original.
      for (int probe = 0; probe < 30; ++probe) {
        std::vector<double> x(3);
        for (double& v : x) v = rng.next_double(-6.0, 6.0);
        EXPECT_TRUE(bits_equal(tree.predict(x), rebuilt.predict(x)));
      }
    }
  }
}

TEST(FlatLayout, ForestConcatenationPreservesPerTreeLayout) {
  Rng rng(707);
  Gbdt model;
  GbdtParams params;
  params.num_trees = 5;
  model.fit(random_dataset(80, 3, rng), params);
  const FlatForest& forest = model.flat_forest();

  std::size_t total = 0;
  for (const DecisionTree& t : model.trees()) total += t.num_nodes();
  EXPECT_EQ(forest.num_nodes(), total);
  EXPECT_EQ(forest.num_trees(), model.trees().size());
}

// ---------------------------------------------------------------------------
// Input validation

TEST(BatchPredict, RejectsMalformedBatches) {
  Rng rng(909);
  Gbdt model;
  model.fit(random_dataset(60, 3, rng), GbdtParams{});
  std::vector<double> m(3 * 4);
  std::vector<double> out(4);
  // Output span narrower than the batch.
  EXPECT_THROW(model.predict_batch(m, 5, out), InvalidArgument);
  // Feature span not a whole number of rows.
  std::vector<double> ragged(7);
  EXPECT_THROW(model.predict_batch(ragged, 2, out), InvalidArgument);
  // Rows narrower than the forest's feature space.
  Gbdt wide;
  wide.fit(random_dataset(60, 6, rng), GbdtParams{});
  if (wide.flat_forest().min_feature_width() > 2) {
    std::vector<double> narrow(4 * 2);
    EXPECT_THROW(wide.predict_batch(narrow, 4, out), InvalidArgument);
  }
  // Zero rows is a no-op, not an error.
  model.predict_batch(std::span<const double>{}, 0, out);
}

}  // namespace
}  // namespace aal
