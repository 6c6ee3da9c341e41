#include "ml/sa_optimizer.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "space/schedule_template.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

ConfigSpace toy_space() {
  std::vector<Knob> knobs;
  knobs.push_back(Knob::option("a", {0, 1, 2, 3, 4, 5, 6, 7}));
  knobs.push_back(Knob::option("b", {0, 1, 2, 3, 4, 5, 6, 7}));
  knobs.push_back(Knob::option("c", {0, 1, 2, 3}));
  return ConfigSpace(std::move(knobs));
}

TEST(SaOptimizer, FindsSeparableMaximum) {
  const ConfigSpace space = toy_space();
  // Score maximized at choices (7, 7, 3).
  const auto score = [](const Config& c) {
    return static_cast<double>(c.choices[0] + c.choices[1] + c.choices[2]);
  };
  SaParams params;
  params.num_chains = 16;
  params.iterations = 80;
  const SaOptimizer sa(space, params);
  Rng rng(1);
  const auto top = sa.maximize(score, 3, rng);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].choices, (std::vector<std::int32_t>{7, 7, 3}));
}

TEST(SaOptimizer, TopKSortedAndDistinct) {
  const ConfigSpace space = toy_space();
  const auto score = [](const Config& c) {
    return static_cast<double>(c.choices[0]);
  };
  SaParams params;
  params.num_chains = 16;
  params.iterations = 60;
  const SaOptimizer sa(space, params);
  Rng rng(2);
  const auto top = sa.maximize(score, 10, rng);
  EXPECT_LE(top.size(), 10u);
  std::unordered_set<std::int64_t> flats;
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_TRUE(flats.insert(top[i].flat).second);
    if (i > 0) {
      EXPECT_GE(score(top[i - 1]), score(top[i]));
    }
  }
}

TEST(SaOptimizer, RespectsExcludeSet) {
  const ConfigSpace space = toy_space();
  const auto score = [](const Config& c) {
    return static_cast<double>(c.choices[0] + c.choices[1] + c.choices[2]);
  };
  // Exclude the global optimum; it must not be returned.
  const std::int64_t best_flat = space.make({7, 7, 3}).flat;
  SaParams params;
  params.num_chains = 16;
  params.iterations = 80;
  const SaOptimizer sa(space, params);
  Rng rng(3);
  const auto top = sa.maximize(score, 5, rng, {best_flat});
  for (const auto& c : top) EXPECT_NE(c.flat, best_flat);
}

TEST(SaOptimizer, DeterministicGivenRngState) {
  const ConfigSpace space = toy_space();
  const auto score = [](const Config& c) {
    return static_cast<double>(c.choices[0] * c.choices[1]);
  };
  const SaOptimizer sa(space, SaParams{});
  Rng rng_a(4), rng_b(4);
  const auto a = sa.maximize(score, 4, rng_a);
  const auto b = sa.maximize(score, 4, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].flat, b[i].flat);
}

TEST(SaOptimizer, WorksOnRealScheduleSpace) {
  const Workload w = testing::small_conv_workload();
  const ConfigSpace space = testing::cuda_space(w);
  // A deterministic smooth-ish score: prefer mid-range flat indices.
  const auto score = [&](const Config& c) {
    const double x =
        static_cast<double>(c.flat) / static_cast<double>(space.size());
    return -(x - 0.37) * (x - 0.37);
  };
  SaParams params;
  params.num_chains = 8;
  params.iterations = 40;
  const SaOptimizer sa(space, params);
  Rng rng(5);
  const auto top = sa.maximize(score, 8, rng);
  EXPECT_FALSE(top.empty());
  // SA must beat uniform expectation: best found within |x-0.37| < 0.25.
  const double x = static_cast<double>(top[0].flat) /
                   static_cast<double>(space.size());
  EXPECT_LT(std::abs(x - 0.37), 0.25);
}

TEST(SaOptimizer, KMustBePositive) {
  const ConfigSpace space = toy_space();
  const SaOptimizer sa(space, SaParams{});
  Rng rng(6);
  EXPECT_THROW(sa.maximize([](const Config&) { return 0.0; }, 0, rng),
               InvalidArgument);
}

}  // namespace
}  // namespace aal
