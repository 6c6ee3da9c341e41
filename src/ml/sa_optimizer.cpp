#include "ml/sa_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "support/common.hpp"

namespace aal {

Config SaOptimizer::mutate(const Config& config, Rng& rng) const {
  // Resample one knob (retry if the knob has a single entity).
  std::vector<std::int32_t> choices = config.choices;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const auto knob_idx =
        static_cast<std::size_t>(rng.next_index(space_.num_knobs()));
    const std::int64_t size = space_.knob(knob_idx).size();
    if (size <= 1) continue;
    auto v = static_cast<std::int32_t>(rng.next_index(
        static_cast<std::uint64_t>(size)));
    if (v == choices[knob_idx]) v = (v + 1) % static_cast<std::int32_t>(size);
    choices[knob_idx] = v;
    return space_.make(std::move(choices));
  }
  return config;  // fully degenerate space
}

std::vector<Config> SaOptimizer::maximize(
    const std::function<double(const Config&)>& score, int k, Rng& rng,
    const std::unordered_set<std::int64_t>& exclude) const {
  AAL_CHECK(k >= 1, "k must be >= 1");

  struct Chain {
    Config state;
    double energy;
  };
  std::vector<Chain> chains;
  chains.reserve(static_cast<std::size_t>(params_.num_chains));
  for (int i = 0; i < params_.num_chains; ++i) {
    Config c = space_.sample(rng);
    const double e = score(c);
    chains.push_back(Chain{std::move(c), e});
  }

  // Top-k distinct candidates by score; std::map keyed by (-score, flat)
  // for deterministic ordering.
  std::map<std::pair<double, std::int64_t>, Config> top;
  const auto cap = static_cast<std::size_t>(k);
  auto offer = [&](const Config& c, double e) {
    if (exclude.contains(c.flat)) return;
    const std::pair<double, std::int64_t> key{-e, c.flat};
    // A full set keeps only keys below its worst; anything else would be
    // inserted and erased again (or is the worst itself), so skip the map
    // node and the Config copy.
    if (top.size() >= cap && !(key < std::prev(top.end())->first)) return;
    if (top.contains(key)) return;
    top.emplace(key, c);
    if (top.size() > cap) {
      top.erase(std::prev(top.end()));
    }
  };
  for (const Chain& c : chains) offer(c.state, c.energy);

  // Temperature scale: energies are surrogate scores whose magnitude varies
  // by task, so normalize the acceptance test by a running score spread.
  double spread = 1e-9;
  for (const Chain& c : chains) {
    spread = std::max(spread, std::abs(c.energy));
  }

  for (int iter = 0; iter < params_.iterations; ++iter) {
    const double progress =
        params_.iterations <= 1
            ? 1.0
            : static_cast<double>(iter) / (params_.iterations - 1);
    const double temp =
        params_.temp_start + (params_.temp_end - params_.temp_start) * progress;
    for (Chain& chain : chains) {
      Config proposal = mutate(chain.state, rng);
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

}  // namespace aal
