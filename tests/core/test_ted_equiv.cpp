// TED's two equivalence contracts (docs/PERF.md "TED selection"):
//
// * TedKernelBuild — bitwise. The register-blocked pairwise build, the
//   radix-select median and the tiled kernel transform return the same
//   doubles as the verbatim pre-change loops in
//   tests/reference/reference_impls.hpp, serially and split over a pool.
// * TedPickEquality — pick-equal. The read-only lazy deflation that
//   ted_select runs for the RBF kernel does different floating-point work
//   from the materialized deflation and the scalar reference TED, so the
//   property is "same indices in the same order", swept over every
//   target's default and native spaces at BTED's real shapes: batches of
//   n = 500 and the final union of their picks.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "core/ted.hpp"
#include "graph/fusion.hpp"
#include "graph/models.hpp"
#include "hwsim/target.hpp"
#include "measure/tuning_task.hpp"
#include "reference/reference_impls.hpp"
#include "support/thread_pool.hpp"

namespace aal {
namespace {

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

dense::Matrix random_matrix(std::size_t n, std::size_t d, Rng& rng) {
  dense::Matrix x(n, d);
  for (double& v : x.data) v = rng.next_double(-1.0, 1.0);
  return x;
}

/// Features of `n` distinct configs of a space, z-scored as ted_select
/// does before it builds the kernel.
dense::Matrix space_features(const ConfigSpace& space, std::size_t n,
                             Rng& rng) {
  const auto configs =
      space.sample_distinct(static_cast<std::int64_t>(n), rng);
  dense::Matrix x = space.features_batch(
      std::span<const Config>{configs.data(), configs.size()});
  dense::standardize_columns(x);
  return x;
}

// --- TedKernelBuild --------------------------------------------------------

TEST(TedKernelBuild, PairwiseMatchesTheBlockedReferenceBitwise) {
  // Row counts around the 4-row register block and the 48-row tile, widths
  // with and without a dot() tail.
  ThreadPool pool(3);
  Rng rng(31);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 47u, 48u, 49u, 52u,
                              97u, 500u}) {
    for (const std::size_t d : {1u, 3u, 4u, 7u, 20u}) {
      const dense::Matrix x = random_matrix(n, d, rng);
      std::vector<double> want, got(n * n), got_pool(n * n);
      reference::pairwise_sq_dist_blocked(x, want);
      dense::pairwise_sq_dist(x, got.data());
      dense::pairwise_sq_dist(x, got_pool.data(), &pool);
      EXPECT_TRUE(bitwise_equal(got, want)) << "n=" << n << " d=" << d;
      EXPECT_TRUE(bitwise_equal(got_pool, want)) << "n=" << n << " d=" << d;
    }
  }
}

TEST(TedKernelBuild, MedianMatchesTheReferenceBitwise) {
  Rng rng(32);
  std::vector<double> sq;
  const auto check = [&](const dense::Matrix& x, const std::string& what) {
    sq.assign(x.rows * x.rows, 0.0);
    dense::pairwise_sq_dist(x, sq.data());
    const double want = reference::median_distance(sq, x.rows);
    const double got = ted_detail::median_distance(sq, x.rows);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << what << " n=" << x.rows << " got " << got << " want " << want;
  };
  // Odd and even pair counts (n(n-1)/2 is odd for n = 2, 3, 6, 7, ...).
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 64u, 101u,
                              500u, 639u}) {
    check(random_matrix(n, 5, rng), "random");
  }
  // Heavy ties: few distinct rows, so whole buckets share one value and
  // the median can sit on zero distances.
  for (const std::size_t distinct : {1u, 2u, 3u}) {
    dense::Matrix x(40, 2);
    for (std::size_t i = 0; i < x.rows; ++i) {
      x.at(i, 0) = static_cast<double>(i % distinct);
      x.at(i, 1) = -0.5 * static_cast<double>(i % distinct);
    }
    check(x, "ties/" + std::to_string(distinct));
  }
  // Values spread over many binades (bucket boundaries inside the middle).
  dense::Matrix wide(90, 1);
  for (std::size_t i = 0; i < wide.rows; ++i) {
    wide.at(i, 0) = std::ldexp(1.0 + rng.next_double(0.0, 1.0),
                               static_cast<int>(i % 30) - 15);
  }
  check(wide, "wide");
  // Real config features (discrete knobs, z-scored).
  const auto tasks = extract_tasks(fuse(make_mobilenet_v1()));
  const TuningTask task(tasks[0].workload, make_target("gpu-pascal"));
  check(space_features(task.space(), 500, rng), "mobilenet t0");
}

TEST(TedKernelBuild, KernelMatchesTheReferenceBitwise) {
  ThreadPool pool(4);
  Rng rng(33);
  for (const std::size_t n : {1u, 2u, 65u, 130u, 500u}) {
    const dense::Matrix x = random_matrix(n, 20, rng);
    for (const TedKernel kernel :
         {TedKernel::kRbf, TedKernel::kEuclideanDistance}) {
      for (const double sigma : {0.0, 0.7}) {
        TedParams params;
        params.kernel = kernel;
        params.rbf_sigma = sigma;
        const std::vector<double> want = reference::build_ted_kernel(x, params);
        std::vector<double> got(n * n), got_pool(n * n);
        ted_detail::build_kernel(x, params, got.data());
        ted_detail::build_kernel(x, params, got_pool.data(), &pool);
        EXPECT_TRUE(bitwise_equal(got, want)) << "n=" << n;
        EXPECT_TRUE(bitwise_equal(got_pool, want)) << "n=" << n << " (pool)";
      }
    }
  }
}

// --- TedPickEquality -------------------------------------------------------

using Case = std::tuple<std::string, std::string>;  // target, template

class TedPickEquality : public ::testing::TestWithParam<Case> {};

TEST_P(TedPickEquality, LazyMaterializedAndScalarReferenceAgree) {
  const auto& [target_name, template_request] = GetParam();
  const auto tasks = extract_tasks(fuse(make_mobilenet_v1()));
  ThreadPool pool(4);
  const TedParams params;  // the RBF kernel BTED runs
  const std::size_t m = 64;
  // Two mobilenet_v1 tasks: the first conv and a depthwise layer.
  for (const std::size_t t : {std::size_t{0}, std::size_t{1}}) {
    const TuningTask task(tasks[t].workload, make_target(target_name),
                          template_request);
    const ConfigSpace& space = task.space();
    Rng rng(0x7ED + t);
    // BTED's batches: lazy vs materialized on every batch's kernel, the
    // scalar reference on two of them; the union feeds the final pass.
    std::vector<std::vector<double>> union_rows;
    std::unordered_set<std::int64_t> seen;
    for (int b = 0; b < 10; ++b) {
      const auto configs = space.sample_distinct(500, rng);
      const dense::Matrix features = space.features_batch(
          std::span<const Config>{configs.data(), configs.size()});
      dense::Matrix x = features;
      dense::standardize_columns(x);
      const std::size_t n = x.rows;
      std::vector<double> k(n * n);
      ted_detail::build_kernel(x, params, k.data());
      std::vector<double> k_mut = k;
      const auto mat =
          ted_detail::select_materialized(k_mut, n, std::min(m, n), params.mu);
      const auto lazy = ted_detail::select_lazy(k, n, std::min(m, n),
                                                params.mu);
      const std::string where = target_name + "/" + template_request +
                                " task " + std::to_string(t) + " batch " +
                                std::to_string(b) + " n " + std::to_string(n);
      ASSERT_EQ(lazy, mat) << where;
      const auto picks = ted_select(features, m, params);
      if (n > m) {
        ASSERT_EQ(picks, lazy) << where;
      }
      if (b < 2) {
        std::vector<std::vector<double>> rows(n);
        for (std::size_t i = 0; i < n; ++i) {
          rows[i].assign(features.row(i), features.row(i) + features.cols);
        }
        ASSERT_EQ(picks, reference::ted_select(rows, m, params)) << where;
      }
      for (const std::size_t i : picks) {
        if (seen.insert(configs[i].flat).second) {
          union_rows.emplace_back(features.row(i),
                                  features.row(i) + features.cols);
        }
      }
    }
    // The final pass over the union: serial, pooled and the reference.
    const dense::Matrix final_features = dense::from_rows(union_rows);
    const auto got = ted_select(final_features, m, params);
    const std::string where = target_name + "/" + template_request +
                              " task " + std::to_string(t) + " union n " +
                              std::to_string(union_rows.size());
    ASSERT_EQ(ted_select(final_features, m, params, &pool), got) << where;
    ASSERT_EQ(reference::ted_select(union_rows, m, params), got) << where;
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
    Targets, TedPickEquality, ::testing::ValuesIn(all_cases()),
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
