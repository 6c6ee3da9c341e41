// Equivalence property for SaOptimizer::maximize: the search must return
// the same configurations in the same order, leave the RNG at the same
// state and call the score function the same number of times as the
// original one-insert-per-proposal loop scoring through the per-tree GBDT
// sum — on every target's default and native spaces, with a fitted GBDT
// surrogate as the energy, k in {1, 8, 64} and random exclude sets. The
// original mutate/maximize pair is kept below verbatim as the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "hwsim/target.hpp"
#include "measure/tuning_task.hpp"
#include "ml/flat_forest.hpp"
#include "ml/gbdt.hpp"
#include "ml/sa_optimizer.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

Config reference_mutate(const ConfigSpace& space, const Config& config,
                        Rng& rng) {
  // Resample one knob (retry if the knob has a single entity).
  std::vector<std::int32_t> choices = config.choices;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const auto knob_idx =
        static_cast<std::size_t>(rng.next_index(space.num_knobs()));
    const std::int64_t size = space.knob(knob_idx).size();
    if (size <= 1) continue;
    auto v = static_cast<std::int32_t>(rng.next_index(
        static_cast<std::uint64_t>(size)));
    if (v == choices[knob_idx]) v = (v + 1) % static_cast<std::int32_t>(size);
    choices[knob_idx] = v;
    return space.make(std::move(choices));
  }
  return config;  // fully degenerate space
}

/// SaOptimizer::maximize as it was before the full-set pre-check in offer.
std::vector<Config> reference_maximize(
    const ConfigSpace& space, const SaParams& params,
    const std::function<double(const Config&)>& score, int k, Rng& rng,
    const std::unordered_set<std::int64_t>& exclude) {
  struct Chain {
    Config state;
    double energy;
  };
  std::vector<Chain> chains;
  chains.reserve(static_cast<std::size_t>(params.num_chains));
  for (int i = 0; i < params.num_chains; ++i) {
    Config c = space.sample(rng);
    const double e = score(c);
    chains.push_back(Chain{std::move(c), e});
  }

  std::map<std::pair<double, std::int64_t>, Config> top;
  auto offer = [&](const Config& c, double e) {
    if (exclude.contains(c.flat)) return;
    const std::pair<double, std::int64_t> key{-e, c.flat};
    if (top.contains(key)) return;
    top.emplace(key, c);
    if (top.size() > static_cast<std::size_t>(k)) {
      top.erase(std::prev(top.end()));
    }
  };
  for (const Chain& c : chains) offer(c.state, c.energy);

  double spread = 1e-9;
  for (const Chain& c : chains) {
    spread = std::max(spread, std::abs(c.energy));
  }

  for (int iter = 0; iter < params.iterations; ++iter) {
    const double progress =
        params.iterations <= 1
            ? 1.0
            : static_cast<double>(iter) / (params.iterations - 1);
    const double temp =
        params.temp_start + (params.temp_end - params.temp_start) * progress;
    for (Chain& chain : chains) {
      Config proposal = reference_mutate(space, chain.state, rng);
      if (proposal.flat == chain.state.flat) continue;
      const double e = score(proposal);
      offer(proposal, e);
      const double delta = (e - chain.energy) / (spread * std::max(temp, 1e-6));
      if (delta >= 0.0 || rng.next_double() < std::exp(delta)) {
        chain.state = std::move(proposal);
        chain.energy = e;
      }
    }
  }

  std::vector<Config> out;
  out.reserve(top.size());
  for (auto& [key, config] : top) out.push_back(std::move(config));
  return out;
}

/// Sets the process-wide scoring switch for one scope.
class ScopedBatchScoring {
 public:
  explicit ScopedBatchScoring(bool enabled)
      : previous_(batch_scoring_enabled()) {
    set_batch_scoring_enabled(enabled);
  }
  ~ScopedBatchScoring() { set_batch_scoring_enabled(previous_); }

 private:
  bool previous_;
};

struct Outcome {
  std::vector<Config> top;
  std::uint64_t next_draw = 0;
  std::int64_t score_calls = 0;
};

/// Runs `fn(score, rng)` with a fresh RNG and a call-counting GBDT score;
/// `batch` picks the flat engine (true) or the per-tree reference sum.
template <typename Fn>
Outcome run(const ConfigSpace& space, const Gbdt& model, bool batch,
            std::uint64_t seed, Fn&& fn) {
  const ScopedBatchScoring scoring(batch);
  Outcome o;
  std::vector<double> row(static_cast<std::size_t>(space.feature_dim()));
  const std::function<double(const Config&)> score = [&](const Config& c) {
    ++o.score_calls;
    space.features_into(c, row);
    return model.predict(row);
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
            return reference_maximize(space, params, score, k, r, exclude);
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
