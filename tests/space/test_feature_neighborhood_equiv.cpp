// Equivalence property for ConfigSpace::feature_neighborhood: the per-knob
// distance kernel must reproduce the original rejection loop bit for bit —
// the same points in the same order, the same RNG consumption and the same
// feasibility tally — on every target's default and native spaces, across
// radii from the empty ball to one that covers the space, and across caps.
// The original loop is kept below verbatim as the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "hwsim/target.hpp"
#include "measure/tuning_task.hpp"
#include "space/config_space.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

/// feature_neighborhood as it was before the per-knob kernel: copy the
/// centre's choices, mutate 1-3 knobs, make(), probe the seen-set, then
/// re-featurize the whole candidate and sum its squared distance.
std::vector<Config> reference_feature_neighborhood(const ConfigSpace& space,
                                                   const Config& center,
                                                   double radius,
                                                   std::size_t max_points,
                                                   Rng& rng) {
  std::vector<Config> out;
  if (max_points == 0) return out;

  const std::vector<double> center_feats = space.features(center);
  const double r2 = radius * radius;
  std::unordered_set<std::int64_t> seen{center.flat};
  const std::size_t max_attempts = max_points * 60 + 400;
  std::vector<double> feats;
  feats.reserve(static_cast<std::size_t>(space.feature_dim()));

  for (std::size_t attempt = 0;
       attempt < max_attempts && out.size() < max_points; ++attempt) {
    std::vector<std::int32_t> choices = center.choices;
    const auto mutations = 1 + rng.next_index(3);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      const auto k =
          static_cast<std::size_t>(rng.next_index(space.num_knobs()));
      choices[k] = static_cast<std::int32_t>(rng.next_index(
          static_cast<std::uint64_t>(space.knob(k).size())));
    }
    Config candidate = space.make(std::move(choices));
    if (seen.contains(candidate.flat)) continue;

    feats.clear();
    for (std::size_t i = 0; i < space.num_knobs(); ++i) {
      space.knob(i).append_features(candidate.choices[i], feats);
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < feats.size() && acc <= r2; ++i) {
      const double d = feats[i] - center_feats[i];
      acc += d * d;
    }
    if (acc > r2) continue;
    seen.insert(candidate.flat);
    if (space.num_constraints() > 0 && !space.feasible(candidate)) continue;
    out.push_back(std::move(candidate));
  }

  if (out.empty() && space.size() >= 2) {
    for (int i = 0; i < 64 && out.empty(); ++i) {
      Config c = space.sample(rng);
      if (c.flat != center.flat) out.push_back(std::move(c));
    }
  }
  return out;
}

struct Outcome {
  std::vector<Config> points;
  std::uint64_t next_draw = 0;
  std::int64_t checks = 0;
  std::int64_t pruned = 0;
};

template <typename Fn>
Outcome run(const ConfigSpace& space, std::uint64_t seed, Fn&& fn) {
  Rng rng(seed);
  const std::int64_t checks = space.feasibility_checks();
  const std::int64_t pruned = space.pruned_count();
  Outcome o;
  o.points = fn(rng);
  o.next_draw = rng();
  o.checks = space.feasibility_checks() - checks;
  o.pruned = space.pruned_count() - pruned;
  return o;
}

constexpr double kRadii[] = {0.0, 0.5, 3.0, 4.5, 6.75, 24.0};
constexpr std::size_t kCaps[] = {1, 64, 512};
constexpr int kCentres = 200;

using Case = std::tuple<std::string, std::string>;  // target, template

class FeatureNeighborhoodEquiv : public ::testing::TestWithParam<Case> {};

TEST_P(FeatureNeighborhoodEquiv, MatchesTheRejectionLoop) {
  const auto& [target_name, template_request] = GetParam();
  const TargetSpec target = make_target(target_name);
  std::vector<TuningTask> tasks;
  for (const Workload& w :
       {testing::small_conv_workload(), testing::small_depthwise_workload(),
        testing::small_dense_workload()}) {
    tasks.emplace_back(w, target, template_request);
  }

  Rng centres(0xC0FFEE);
  std::int64_t points = 0;
  for (int i = 0; i < kCentres; ++i) {
    const ConfigSpace& space = tasks[static_cast<std::size_t>(i) % 3].space();
    // Centres are drawn without the constraint filter so infeasible
    // centres (BAO may centre on a failed pick) are covered too.
    const Config center = space.at(static_cast<std::int64_t>(
        centres.next_index(static_cast<std::uint64_t>(space.size()))));
    for (const double radius : kRadii) {
      for (const std::size_t cap : kCaps) {
        const std::uint64_t seed = centres();
        const Outcome want = run(space, seed, [&](Rng& rng) {
          return reference_feature_neighborhood(space, center, radius, cap,
                                                rng);
        });
        const Outcome got = run(space, seed, [&](Rng& rng) {
          return space.feature_neighborhood(center, radius, cap, rng);
        });
        const auto where = [&] {
          return "centre " + std::to_string(center.flat) + " radius " +
                 std::to_string(radius) + " cap " + std::to_string(cap);
        };
        ASSERT_EQ(got.points.size(), want.points.size()) << where();
        for (std::size_t p = 0; p < want.points.size(); ++p) {
          ASSERT_EQ(got.points[p].flat, want.points[p].flat) << where();
          ASSERT_EQ(got.points[p].choices, want.points[p].choices) << where();
        }
        ASSERT_EQ(got.next_draw, want.next_draw) << where();
        ASSERT_EQ(got.checks, want.checks) << where();
        ASSERT_EQ(got.pruned, want.pruned) << where();
        points += static_cast<std::int64_t>(want.points.size());
      }
    }
  }
  EXPECT_GT(points, 0);
}

// Floating-point addition is not associative, so the kernel must add the
// mutated knobs' terms in column order, as the whole-vector sum does, not
// in draw order. Option knobs {0, 1}, {0, 5}, {0, 6} around the all-zero
// centre give a corner whose column-order distance exceeds r^2 while
// another summation order stays within it; random centres almost never
// land on such a boundary.
TEST(FeatureNeighborhoodEquivOrder, MutatedKnobsAreSummedInColumnOrder) {
  const ConfigSpace space({Knob::option("a", {0, 1}), Knob::option("b", {0, 5}),
                           Knob::option("c", {0, 6})});
  const Config center = space.make({0, 0, 0});
  const Config corner = space.make({1, 1, 1});
  const auto term = [&](std::vector<std::int32_t> choices) {
    return space.feature_distance_sq(center, space.make(std::move(choices)));
  };
  const double a = term({1, 0, 0}), b = term({0, 1, 0}), c = term({0, 0, 1});
  const double column_order = space.feature_distance_sq(center, corner);
  const double other_order = std::min({(a + c) + b, (b + c) + a});
  ASSERT_LT(other_order, column_order);
  double radius = std::sqrt(other_order);
  while (radius * radius < other_order) radius = std::nextafter(radius, 1e9);
  ASSERT_LT(radius * radius, column_order) << "no radius separates the sums";

  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Outcome want = run(space, seed, [&](Rng& rng) {
      return reference_feature_neighborhood(space, center, radius, 64, rng);
    });
    const Outcome got = run(space, seed, [&](Rng& rng) {
      return space.feature_neighborhood(center, radius, 64, rng);
    });
    ASSERT_EQ(got.points.size(), want.points.size()) << "seed " << seed;
    for (std::size_t p = 0; p < want.points.size(); ++p) {
      EXPECT_EQ(got.points[p].flat, want.points[p].flat) << "seed " << seed;
      EXPECT_NE(got.points[p].flat, corner.flat) << "seed " << seed;
    }
    EXPECT_EQ(got.next_draw, want.next_draw) << "seed " << seed;
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const std::string& target : target_names()) {
    cases.emplace_back(target, "default");
    cases.emplace_back(target, "native");
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Targets, FeatureNeighborhoodEquiv, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name =
          std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace aal
