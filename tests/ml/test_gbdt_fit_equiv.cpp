// Equivalence property for Gbdt::fit: the boosting round update's fast
// path (training rows credited with the leaf value the build partition
// gave them, out-of-sample rows routed by bin) must grow exactly the trees
// of the reference fit, which walks every row through every new tree on
// raw features (tests/reference/reference_impls.hpp). Strict-edge datasets
// take the fast path; tied-edge datasets, where a data value sits exactly
// on a bin edge, must fall back to the raw walk. Both are checked node by
// node and by bit-equal predictions on probe rows, with default and
// subsampled parameters.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "ml/binned.hpp"
#include "ml/gbdt.hpp"
#include "reference/reference_impls.hpp"
#include "support/rng.hpp"

namespace aal {
namespace {

constexpr std::size_t kDim = 5;

/// Feature 0 of a tied-edge dataset: among a few distinct values (so every
/// midpoint is an edge), 1 and the double just below it, whose midpoint
/// rounds up onto 1. Rows at 1 then sit in the bin above that edge but go
/// left of it by threshold (x <= edge). The target jumps across the pair,
/// so trees do split there.
const double kTiedValues[] = {-1.0, 0.0, std::nextafter(1.0, 0.0), 1.0, 3.0};

Dataset make_dataset(std::size_t rows, bool tied, Rng& rng) {
  Dataset d(kDim);
  std::vector<double> x(kDim);
  for (std::size_t i = 0; i < rows; ++i) {
    for (double& v : x) v = rng.next_double(-4.0, 4.0);
    if (tied) x[0] = kTiedValues[rng.next_index(std::size(kTiedValues))];
    double y = x[1] * x[2] - 0.5 * x[3] + std::sin(x[4]);
    y += x[0] >= 1.0 ? 3.0 : -1.0;
    d.add_row(x, y + rng.next_gaussian(0.0, 0.1));
  }
  return d;
}

GbdtParams subsampled_params() {
  GbdtParams p;
  p.num_trees = 30;
  p.max_depth = 7;
  p.min_samples_leaf = 1;
  p.row_subsample = 0.5;
  p.feature_fraction = 0.6;
  p.seed = 77;
  return p;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_fit(const Dataset& data, const GbdtParams& params, Rng& rng,
                     const std::string& where) {
  Gbdt model;
  model.fit(data, params);
  const reference::Forest want = reference::gbdt_fit(data, params);

  ASSERT_EQ(bits(model.base()), bits(want.base)) << where;
  ASSERT_EQ(bits(model.scale()), bits(want.scale)) << where;
  ASSERT_EQ(model.trees().size(), want.trees.size()) << where;
  for (std::size_t t = 0; t < want.trees.size(); ++t) {
    const DecisionTree& got_tree = model.trees()[t];
    const DecisionTree& want_tree = want.trees[t];
    ASSERT_EQ(got_tree.num_nodes(), want_tree.num_nodes())
        << where << " tree " << t;
    for (std::size_t i = 0; i < want_tree.num_nodes(); ++i) {
      const TreeNodeSpec a = got_tree.node_spec(i);
      const TreeNodeSpec b = want_tree.node_spec(i);
      const std::string node =
          where + " tree " + std::to_string(t) + " node " + std::to_string(i);
      ASSERT_EQ(a.feature, b.feature) << node;
      ASSERT_EQ(bits(a.threshold), bits(b.threshold)) << node;
      ASSERT_EQ(bits(a.value), bits(b.value)) << node;
      ASSERT_EQ(a.left, b.left) << node;
      ASSERT_EQ(a.right, b.right) << node;
    }
  }

  std::vector<double> probe(kDim);
  for (int p = 0; p < 64; ++p) {
    // Half the probes are training rows, half fresh points.
    if (p % 2 == 0) {
      const auto row = data.row(rng.next_index(data.num_rows()));
      probe.assign(row.begin(), row.end());
    } else {
      for (double& v : probe) v = rng.next_double(-5.0, 5.0);
    }
    ASSERT_EQ(bits(model.predict(probe)),
              bits(reference::per_tree_sum(want.trees, want.base, want.scale,
                                           want.learning_rate, probe)))
        << where << " probe " << p;
  }
}

void check_all(bool tied) {
  Rng rng(tied ? 0x71ED : 0x5791C7);
  for (const std::size_t rows : {64, 200, 768}) {
    const Dataset data = make_dataset(rows, tied, rng);
    ASSERT_EQ(BinnedMatrix::build(data).strict_edges(), !tied)
        << "rows " << rows;
    const std::string where = "rows " + std::to_string(rows);
    expect_same_fit(data, GbdtParams{}, rng, where + " default");
    expect_same_fit(data, subsampled_params(), rng, where + " subsampled");
  }
}

TEST(GbdtFitEquiv, StrictEdgesMatchTheRawThresholdFit) { check_all(false); }

TEST(GbdtFitEquiv, TiedEdgesMatchTheRawThresholdFit) { check_all(true); }

}  // namespace
}  // namespace aal
