#include "core/ted.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "support/common.hpp"
#include "support/thread_pool.hpp"

namespace aal {

namespace {

/// Runs body(begin, end) over row blocks of [0, n): one block per hand of
/// `pool`, or all of [0, n) inline without a pool.
template <typename Body>
void for_row_blocks(std::size_t n, ThreadPool* pool, const Body& body) {
  const std::size_t blocks = pool == nullptr ? 1 : std::min(n, pool->size());
  if (blocks <= 1) {
    body(std::size_t{0}, n);
    return;
  }
  const std::size_t step = (n + blocks - 1) / blocks;
  pool->parallel_for(blocks, [&](std::size_t b) {
    body(std::min(n, b * step), std::min(n, (b + 1) * step));
  });
}

/// Below this many candidates a pool's dispatch costs more than the
/// row-block split saves, so ted_select runs serially.
constexpr std::size_t kParallelMinRows = 256;

/// Row-tile edge of the kernel transform: a 64 x 64 block of mirrored
/// stores (32 KiB) stays in L1 while its source rows stream.
constexpr std::size_t kTile = 64;

/// K[i][j] = K[j][i] = f(K[i][j]) for every i < j, one 64-row tile against
/// every tile right of it so the mirrored column stores stay cache-local.
/// A tile reads and writes only the upper entries of its own rows and the
/// mirrored lower entries of their columns, so tiles may run in parallel.
template <typename F>
void transform_upper_and_mirror(double* kd, std::size_t n, ThreadPool* pool,
                                const F& f) {
  const auto tile = [&](std::size_t t) {
    const std::size_t ib = t * kTile;
    const std::size_t ie = std::min(n, ib + kTile);
    for (std::size_t jb = ib; jb < n; jb += kTile) {
      const std::size_t je = std::min(n, jb + kTile);
      for (std::size_t i = ib; i < ie; ++i) {
        for (std::size_t j = std::max(i + 1, jb); j < je; ++j) {
          const double v = f(kd[i * n + j]);
          kd[i * n + j] = v;
          kd[j * n + i] = v;
        }
      }
    }
  };
  const std::size_t tiles = (n + kTile - 1) / kTile;
  if (pool != nullptr && tiles > 1) {
    pool->parallel_for(tiles, tile);
  } else {
    for (std::size_t t = 0; t < tiles; ++t) tile(t);
  }
}

}  // namespace

namespace ted_detail {

double median_distance(std::span<const double> sq, std::size_t n) {
  if (n < 2) return 1.0;
  const std::size_t count = n * (n - 1) / 2;
  const std::size_t mid = count / 2;
  // The ranks the median needs: mid, and mid - 1 when the count is even.
  const std::size_t lo_rank = count % 2 == 1 ? mid : mid - 1;

  // Non-negative doubles order like their bit patterns. The bucket is the
  // exponent plus the top 4 mantissa bits; the sign bit is masked so a
  // -0.0 falls in with +0.0, which the comparisons below treat as equal.
  const auto bucket = [](double v) {
    return static_cast<std::size_t>((std::bit_cast<std::uint64_t>(v) >> 48) &
                                    0x7FFF);
  };
  std::vector<std::uint32_t> hist(std::size_t{1} << 15, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = sq.data() + i * n;
    for (std::size_t j = i + 1; j < n; ++j) ++hist[bucket(row[j])];
  }
  // below = elements in buckets left of b_lo; through = those up to b_hi.
  std::size_t below = 0, b_lo = 0;
  while (below + hist[b_lo] <= lo_rank) below += hist[b_lo++];
  std::size_t b_hi = b_lo, through = below + hist[b_lo];
  while (through <= mid) through += hist[++b_hi];

  // Buckets strictly between b_lo and b_hi are empty, so the candidates are
  // ranks [below, through) and the median ranks sit inside them.
  std::vector<double> cand;
  cand.reserve(through - below);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = sq.data() + i * n;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (bucket(row[j]) - b_lo <= b_hi - b_lo) cand.push_back(row[j]);
    }
  }
  const std::size_t at = mid - below;
  std::nth_element(cand.begin(), cand.begin() + static_cast<std::ptrdiff_t>(at),
                   cand.end());
  const double hi = std::sqrt(cand[at]);
  if (count % 2 == 1) return hi;
  const double lo = std::sqrt(*std::max_element(
      cand.begin(), cand.begin() + static_cast<std::ptrdiff_t>(at)));
  return 0.5 * (lo + hi);
}

void build_kernel(const dense::Matrix& x, const TedParams& params, double* k,
                  ThreadPool* pool) {
  const std::size_t n = x.rows;
  dense::pairwise_sq_dist(x, k, pool);

  if (params.kernel == TedKernel::kEuclideanDistance) {
    // Diagonal already exactly 0.
    transform_upper_and_mirror(k, n, pool,
                               [](double sq) { return std::sqrt(sq); });
    return;
  }

  double sigma = params.rbf_sigma;
  if (sigma <= 0.0) {
    sigma = std::max(1e-9, median_distance({k, n * n}, n));
  }
  const double inv = 1.0 / (2.0 * sigma * sigma);
  for (std::size_t i = 0; i < n; ++i) k[i * n + i] = 1.0;
  transform_upper_and_mirror(k, n, pool,
                             [inv](double sq) { return std::exp(-sq * inv); });
}

/// Greedy TED selection with the deflation materialized in K: scores come
/// from row norms that dense::deflate_rank_one refreshes in the same pass
/// that applies K <- K - K_x K_x^T / (k(x,x)+mu). O(n^2) read+write per
/// pick. The path of the non-PSD literal distance matrix: its deflated
/// entries grow by ~max(d)^2/mu per pick, which recomputed norms survive
/// and select_lazy's incremental norm update does not.
std::vector<std::size_t> select_materialized(std::span<double> k,
                                             std::size_t n, std::size_t m,
                                             double mu) {
  std::vector<std::size_t> selected;
  selected.reserve(m);
  std::vector<bool> taken(n, false);
  std::vector<double> norm_sq(n);
  dense::row_sq_norms(k.data(), n, norm_sq.data());
  std::vector<double> col(n);

  for (std::size_t pick = 0; pick < m; ++pick) {
    double best_score = -std::numeric_limits<double>::infinity();
    std::size_t best_v = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (taken[v]) continue;
      const double score =
          std::max(norm_sq[v], 0.0) / (std::max(k[v * n + v], 0.0) + mu);
      if (score > best_score) {
        best_score = score;
        best_v = v;
      }
    }
    AAL_ASSERT(best_v < n, "TED failed to select a candidate");
    taken[best_v] = true;
    selected.push_back(best_v);
    if (pick + 1 == m) break;  // the final deflation is unobservable

    const double denom = std::max(k[best_v * n + best_v], 0.0) + mu;
    std::copy_n(&k[best_v * n], n, col.begin());
    dense::deflate_rank_one(k.data(), n, col.data(), denom, norm_sq.data());
  }
  return selected;
}

/// Greedy TED selection with *lazy* deflation: K stays read-only and the
/// deflated matrix K_t = K - sum_s d_s d_s^T / denom_s is represented by
/// the stored pick columns d_s. Each pick reconstructs its column, runs one
/// read-only mat-vec r = K_t d_t, and updates the cached row norms and
/// diagonal via
///   ||K_{t+1}[i]||^2 = ||K_t[i]||^2 - 2 c_i r_i + c_i^2 ||d_t||^2,
///   K_{t+1}[i][i]    = K_t[i][i] - c_i d_t[i],        c_i = d_t[i]/denom_t.
/// O(n^2) *read-only* per pick — half the memory traffic of the
/// materialized path (see docs/PERF.md). Needs a PSD kernel: on a non-PSD
/// one the norm update overflows and cancels into NaN scores.
std::vector<std::size_t> select_lazy(std::span<const double> k,
                                     std::size_t n, std::size_t m, double mu,
                                     ThreadPool* pool) {
  std::vector<std::size_t> selected;
  selected.reserve(m);
  std::vector<bool> taken(n, false);
  std::vector<double> norm_sq(n), diag(n);
  dense::row_sq_norms(k.data(), n, norm_sq.data());
  for (std::size_t i = 0; i < n; ++i) diag[i] = k[i * n + i];

  std::vector<std::vector<double>> hist_cols;  // d_s
  std::vector<double> hist_inv_denom;          // 1/denom_s
  hist_cols.reserve(m);
  hist_inv_denom.reserve(m);
  std::vector<double> col(n), r(n);

  for (std::size_t pick = 0; pick < m; ++pick) {
    double best_score = -std::numeric_limits<double>::infinity();
    std::size_t best_v = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (taken[v]) continue;
      const double score =
          std::max(norm_sq[v], 0.0) / (std::max(diag[v], 0.0) + mu);
      if (score > best_score) {
        best_score = score;
        best_v = v;
      }
    }
    AAL_ASSERT(best_v < n, "TED failed to select a candidate");
    taken[best_v] = true;
    selected.push_back(best_v);
    if (pick + 1 == m) break;

    // d_t = K_t[:, x] — original column (K is symmetric: row x) minus the
    // contribution of every earlier deflation.
    std::copy_n(&k[best_v * n], n, col.begin());
    for (std::size_t s = 0; s < hist_cols.size(); ++s) {
      const double coef = hist_cols[s][best_v] * hist_inv_denom[s];
      if (coef != 0.0) dense::axpy(-coef, hist_cols[s].data(), col.data(), n);
    }
    const double denom = std::max(diag[best_v], 0.0) + mu;
    const double inv_denom = 1.0 / denom;

    // r = K_t d_t = K d_t - sum_s d_s (d_s . d_t) / denom_s.
    for_row_blocks(n, pool, [&](std::size_t lo, std::size_t hi) {
      dense::dot_rows(k.data() + lo * n, n, hi - lo, col.data(), n,
                      r.data() + lo);
    });
    for (std::size_t s = 0; s < hist_cols.size(); ++s) {
      const double w =
          dense::dot(hist_cols[s].data(), col.data(), n) * hist_inv_denom[s];
      if (w != 0.0) dense::axpy(-w, hist_cols[s].data(), r.data(), n);
    }

    const double col_norm = dense::dot(col.data(), col.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const double ci = col[i] * inv_denom;
      norm_sq[i] += ci * (ci * col_norm - 2.0 * r[i]);
      diag[i] -= ci * col[i];
    }
    hist_cols.push_back(col);
    hist_inv_denom.push_back(inv_denom);
  }
  return selected;
}

}  // namespace ted_detail

void standardize_columns(std::vector<std::vector<double>>& features) {
  if (features.empty()) return;
  dense::Matrix x = dense::from_rows(features);
  dense::standardize_columns(x);
  for (std::size_t r = 0; r < x.rows; ++r) {
    std::copy_n(x.row(r), x.cols, features[r].begin());
  }
}

std::vector<std::size_t> ted_select(const dense::Matrix& features,
                                    std::size_t m, const TedParams& params,
                                    ThreadPool* pool) {
  const std::size_t n = features.rows;
  if (n == 0) return {};
  if (m >= n) {
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    return all;
  }

  // Normalize a copy so Euclidean distances weigh knobs equally.
  dense::Matrix x = features;
  dense::standardize_columns(x);

  if (n < kParallelMinRows) pool = nullptr;
  // The kernel gets pages of its own (see dense::PageBuffer): BTED builds
  // one on every thread it runs on, and a malloc'd one would stay resident
  // in each thread's arena after it is freed.
  dense::PageBuffer k(n * n);
  ted_detail::build_kernel(x, params, k.data(), pool);
  // The RBF kernel is PSD, so the read-only lazy deflation stays finite.
  // The literal distance matrix is not: its deflation grows by ~max(d)^2/mu
  // per pick, and the lazy norm update would then turn inf - inf into NaN
  // scores, so it keeps the materialized path.
  return params.kernel == TedKernel::kRbf
             ? ted_detail::select_lazy({k.data(), k.size()}, n, m, params.mu,
                                       pool)
             : ted_detail::select_materialized({k.data(), k.size()}, n, m,
                                               params.mu);
}

std::vector<std::size_t> ted_select(
    const std::vector<std::vector<double>>& features, std::size_t m,
    const TedParams& params) {
  if (features.empty()) return {};
  for (const auto& row : features) {
    AAL_CHECK(row.size() == features[0].size(),
              "ted_select: ragged feature matrix");
  }
  return ted_select(dense::from_rows(features), m, params);
}

}  // namespace aal
