// Equivalence property for SaOptimizer::maximize: the search must return
// the same configurations in the same order, leave the RNG at the same
// state and call the score function the same number of times as the
// original one-insert-per-proposal loop scoring through the per-tree GBDT
// sum — on every target's default and native spaces, with a fitted GBDT
// surrogate as the energy, k in {1, 8, 64} and random exclude sets. The
// original mutate/maximize pair (tests/reference/reference_impls.hpp) is
// the oracle.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "hwsim/target.hpp"
#include "measure/tuning_task.hpp"
#include "ml/gbdt.hpp"
#include "ml/sa_optimizer.hpp"
#include "reference/reference_impls.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

struct Outcome {
  std::vector<Config> top;
  std::uint64_t next_draw = 0;
  std::int64_t score_calls = 0;
};

/// Runs `fn(score, rng)` with a fresh RNG and a call-counting GBDT score;
/// `flat` picks the flat engine (true) or the per-tree reference sum.
template <typename Fn>
Outcome run(const ConfigSpace& space, const Gbdt& model, bool flat,
            std::uint64_t seed, Fn&& fn) {
  Outcome o;
  std::vector<double> row(static_cast<std::size_t>(space.feature_dim()));
  const std::function<double(const Config&)> score = [&](const Config& c) {
    ++o.score_calls;
    space.features_into(c, row);
    return flat ? model.predict(row) : reference::per_tree_sum(model, row);
  };
  Rng rng(seed);
  o.top = fn(score, rng);
  o.next_draw = rng();
  return o;
}

/// A GBDT fitted the way the AutoTVM tuner fits its surrogate: default
/// parameters on simulated GFLOPS of sampled configs.
Gbdt fitted_model(const TuningTask& task, Rng& rng) {
  const ConfigSpace& space = task.space();
  Dataset data(static_cast<std::size_t>(space.feature_dim()));
  for (const Config& c : space.sample_distinct(96, rng)) {
    const KernelProfile p = task.profile(c);
    data.add_row(space.features(c),
                 p.valid ? p.gflops(task.workload().flops()) : 0.0);
  }
  GbdtParams params;
  params.seed = rng();
  Gbdt model;
  model.fit(data, params);
  return model;
}

constexpr int kTopK[] = {1, 8, 64};

using Case = std::tuple<std::string, std::string>;  // target, template

class SaEquiv : public ::testing::TestWithParam<Case> {};

TEST_P(SaEquiv, MatchesTheOriginalSearch) {
  const auto& [target_name, template_request] = GetParam();
  const TargetSpec target = make_target(target_name);
  Rng rng(0x5A5A);
  const SaParams params;  // the tuner's 64 chains x 120 steps
  for (const Workload& w :
       {testing::small_conv_workload(), testing::small_depthwise_workload(),
        testing::small_dense_workload()}) {
    const TuningTask task(w, target, template_request);
    const ConfigSpace& space = task.space();
    const Gbdt model = fitted_model(task, rng);
    const SaOptimizer sa(space, params);
    for (const int k : kTopK) {
      // Exclude sets like the tuner's measured set: random points, empty
      // on the first pass.
      std::unordered_set<std::int64_t> exclude;
      const std::size_t excluded = k == 1 ? 0 : rng.next_index(400);
      for (std::size_t i = 0; i < excluded; ++i) {
        exclude.insert(static_cast<std::int64_t>(
            rng.next_index(static_cast<std::uint64_t>(space.size()))));
      }
      const std::uint64_t seed = rng();
      const Outcome want =
          run(space, model, false, seed, [&](const auto& score, Rng& r) {
            return reference::sa_maximize(space, params, score, k, r, exclude);
          });
      const Outcome got =
          run(space, model, true, seed, [&](const auto& score, Rng& r) {
            return sa.maximize(score, k, r, exclude);
          });
      const std::string where = w.brief() + " k " + std::to_string(k);
      ASSERT_EQ(got.top.size(), want.top.size()) << where;
      ASSERT_FALSE(want.top.empty()) << where;
      for (std::size_t i = 0; i < want.top.size(); ++i) {
        ASSERT_EQ(got.top[i].flat, want.top[i].flat) << where << " rank " << i;
        ASSERT_EQ(got.top[i].choices, want.top[i].choices)
            << where << " rank " << i;
      }
      ASSERT_EQ(got.next_draw, want.next_draw) << where;
      ASSERT_EQ(got.score_calls, want.score_calls) << where;
    }
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
    Targets, SaEquiv, ::testing::ValuesIn(all_cases()),
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
