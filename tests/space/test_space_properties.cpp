// Property-based ConfigSpace tests: randomized small spaces checked against
// the algebraic invariants the tuning stack leans on —
//   * flat -> config -> flat and choices -> flat -> choices round-trips,
//   * distance symmetry and identity,
//   * scope monotonicity: the radius-R ball is contained in the tau*R ball
//     (BAO's widening step may only ever *grow* the scope),
//   * neighborhood membership actually honors the radius.
//
// The ball-containment properties use small spaces with generous max_points
// so neighborhood() stays in its exact-enumeration regime (the sampling
// fallback for huge balls and the empty-ball escape hatch are deliberately
// out of scope here — they trade exactness for progress).
#include "space/config_space.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace aal {
namespace {

/// A randomized small space: 2-4 knobs mixing splits and options, total
/// size a few hundred points at most.
ConfigSpace random_space(Rng& rng) {
  const std::int64_t extents[] = {4, 6, 8, 12, 16};
  std::vector<Knob> knobs;
  const int num_knobs = 2 + static_cast<int>(rng.next_index(3));
  for (int i = 0; i < num_knobs; ++i) {
    const std::string name = std::string("k").append(std::to_string(i));
    if (rng.next_bernoulli(0.5)) {
      knobs.push_back(Knob::split(
          name, extents[rng.next_index(5)], 2 + static_cast<int>(rng.next_index(2))));
    } else {
      std::vector<std::int64_t> values;
      const int n = 2 + static_cast<int>(rng.next_index(4));
      for (int v = 0; v < n; ++v) values.push_back(1LL << v);
      knobs.push_back(Knob::option(name, std::move(values)));
    }
  }
  return ConfigSpace(std::move(knobs));
}

TEST(SpacePropertyTest, FlatConfigFlatRoundTrips) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const ConfigSpace space = random_space(rng);
    for (int i = 0; i < 50; ++i) {
      const std::int64_t flat =
          static_cast<std::int64_t>(rng.next_index(
              static_cast<std::uint64_t>(space.size())));
      const Config config = space.at(flat);
      EXPECT_EQ(config.flat, flat);
      EXPECT_EQ(space.flat_of(config.choices), flat);
      // choices -> flat -> choices is the identity too.
      const Config again = space.at(space.make(config.choices).flat);
      EXPECT_EQ(again.choices, config.choices);
    }
  }
}

TEST(SpacePropertyTest, FlatEncodingIsInjective) {
  Rng rng(202);
  for (int trial = 0; trial < 10; ++trial) {
    const ConfigSpace space = random_space(rng);
    std::set<std::vector<std::int32_t>> seen;
    for (std::int64_t flat = 0; flat < space.size(); ++flat) {
      EXPECT_TRUE(seen.insert(space.at(flat).choices).second)
          << "two flats decode to the same choices";
    }
  }
}

TEST(SpacePropertyTest, DistancesAreSymmetricWithZeroDiagonal) {
  Rng rng(303);
  for (int trial = 0; trial < 10; ++trial) {
    const ConfigSpace space = random_space(rng);
    for (int i = 0; i < 30; ++i) {
      const Config a = space.sample(rng);
      const Config b = space.sample(rng);
      EXPECT_DOUBLE_EQ(space.choice_distance_sq(a, b),
                       space.choice_distance_sq(b, a));
      EXPECT_DOUBLE_EQ(space.feature_distance_sq(a, b),
                       space.feature_distance_sq(b, a));
      EXPECT_DOUBLE_EQ(space.choice_distance_sq(a, a), 0.0);
      EXPECT_DOUBLE_EQ(space.feature_distance_sq(a, a), 0.0);
      EXPECT_GE(space.choice_distance_sq(a, b), 0.0);
      EXPECT_GE(space.feature_distance_sq(a, b), 0.0);
    }
  }
}

TEST(SpacePropertyTest, NeighborhoodMembersAreWithinRadiusAndDistinct) {
  Rng rng(404);
  constexpr std::size_t kCap = 100000;  // exact enumeration, cap not binding
  for (int trial = 0; trial < 10; ++trial) {
    const ConfigSpace space = random_space(rng);
    const Config center = space.sample(rng);
    for (const double radius : {1.0, 2.0, 3.0}) {
      const std::vector<Config> ball =
          space.neighborhood(center, radius, kCap, rng);
      std::set<std::int64_t> flats;
      for (const Config& c : ball) {
        EXPECT_NE(c.flat, center.flat) << "center must be excluded";
        EXPECT_LE(space.choice_distance_sq(c, center), radius * radius + 1e-9);
        EXPECT_TRUE(flats.insert(c.flat).second) << "duplicate member";
      }
    }
  }
}

TEST(SpacePropertyTest, ScopeNeverShrinksUnderTau) {
  // BAO's adaptation replaces R with tau*R (tau > 1): the new scope must be
  // a superset of the old one, point for point.
  Rng rng(505);
  constexpr std::size_t kCap = 100000;
  constexpr double kTau = 1.5;
  for (int trial = 0; trial < 10; ++trial) {
    const ConfigSpace space = random_space(rng);
    const Config center = space.sample(rng);
    double radius = 1.0;
    for (int widening = 0; widening < 4; ++widening) {
      const std::vector<Config> inner =
          space.neighborhood(center, radius, kCap, rng);
      const std::vector<Config> outer =
          space.neighborhood(center, kTau * radius, kCap, rng);
      EXPECT_GE(outer.size(), inner.size());
      std::set<std::int64_t> outer_flats;
      for (const Config& c : outer) outer_flats.insert(c.flat);
      for (const Config& c : inner) {
        EXPECT_TRUE(outer_flats.contains(c.flat))
            << "ball(R) member " << c.flat << " missing from ball(tau*R) at R="
            << radius;
      }
      radius *= kTau;
    }
  }
}

TEST(SpacePropertyTest, FeatureNeighborhoodMembersAreWithinRadius) {
  Rng rng(606);
  for (int trial = 0; trial < 10; ++trial) {
    const ConfigSpace space = random_space(rng);
    const Config center = space.sample(rng);
    const double radius = 3.0;
    const std::vector<Config> ball =
        space.feature_neighborhood(center, radius, 64, rng);
    ASSERT_FALSE(ball.empty());
    std::set<std::int64_t> flats;
    for (const Config& c : ball) {
      EXPECT_NE(c.flat, center.flat);
      EXPECT_TRUE(flats.insert(c.flat).second) << "duplicate member";
      // The empty-ball escape hatch may return one out-of-radius point, but
      // only when it returns exactly one point.
      if (ball.size() > 1) {
        EXPECT_LE(space.feature_distance_sq(c, center), radius * radius + 1e-9);
      }
    }
  }
}

TEST(SpacePropertyTest, SampleDistinctIsDistinctAndComplete) {
  Rng rng(707);
  for (int trial = 0; trial < 10; ++trial) {
    const ConfigSpace space = random_space(rng);
    const std::int64_t n = std::min<std::int64_t>(space.size(), 40);
    const std::vector<Config> picks = space.sample_distinct(n, rng);
    EXPECT_EQ(static_cast<std::int64_t>(picks.size()), n);
    std::set<std::int64_t> flats;
    for (const Config& c : picks) {
      EXPECT_TRUE(flats.insert(c.flat).second);
      EXPECT_GE(c.flat, 0);
      EXPECT_LT(c.flat, space.size());
    }
    // Asking for the whole space returns exactly the whole space.
    const std::vector<Config> all = space.sample_distinct(space.size(), rng);
    EXPECT_EQ(static_cast<std::int64_t>(all.size()), space.size());
  }
}

}  // namespace
}  // namespace aal
