#include "core/bted.hpp"

#include <algorithm>
#include <unordered_set>

#include "support/dense.hpp"
#include "support/thread_pool.hpp"

namespace aal {

namespace {

dense::Matrix featurize(const ConfigSpace& space,
                        const std::vector<Config>& configs) {
  return space.features_batch(
      std::span<const Config>{configs.data(), configs.size()});
}

std::vector<Config> pick(const std::vector<Config>& pool,
                         const std::vector<std::size_t>& indices) {
  std::vector<Config> out;
  out.reserve(indices.size());
  for (std::size_t i : indices) out.push_back(pool[i]);
  return out;
}

}  // namespace

std::vector<Config> bted_sample(const TuningTask& task,
                                const BtedParams& params, Rng& rng) {
  AAL_CHECK(params.num_batches >= 1, "BTED needs at least one batch");
  AAL_CHECK(params.batch_sample_size >= 1, "BTED batch size must be >= 1");
  AAL_CHECK(params.num_select >= 1, "BTED must select at least one config");

  const ConfigSpace& space = task.space();
  TedParams ted;
  ted.mu = params.mu;
  ted.kernel = params.kernel;

  // Draw each batch's candidate set up front (deterministic order from the
  // caller's rng), then run the B TED selections on the shared pool.
  std::vector<std::vector<Config>> batches(
      static_cast<std::size_t>(params.num_batches));
  for (auto& batch : batches) {
    batch = space.sample_distinct(params.batch_sample_size, rng);
  }

  ThreadPool& pool = ThreadPool::shared();
  std::vector<std::vector<Config>> selected(batches.size());
  pool.parallel_for(batches.size(), [&](std::size_t b) {
    const auto features = featurize(space, batches[b]);
    const auto indices = ted_select(
        features, static_cast<std::size_t>(params.num_select), ted, &pool);
    selected[b] = pick(batches[b], indices);
  });

  // Union of per-batch picks (dedup by flat index, stable order).
  std::vector<Config> union_set;
  std::unordered_set<std::int64_t> seen;
  for (const auto& sel : selected) {
    for (const Config& c : sel) {
      if (seen.insert(c.flat).second) union_set.push_back(c);
    }
  }

  // Final TED pass over the union.
  const auto features = featurize(space, union_set);
  const auto indices = ted_select(
      features, static_cast<std::size_t>(params.num_select), ted, &pool);
  return pick(union_set, indices);
}

InitSampler bted_init_sampler(BtedParams params) {
  return [params](const TuningTask& task, int m, Rng& rng) {
    BtedParams p = params;
    p.num_select = m;
    return bted_sample(task, p, rng);
  };
}

}  // namespace aal
