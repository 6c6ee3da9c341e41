#include "core/ted.hpp"

#include <algorithm>
#include <limits>
#include <cmath>
#include <numeric>

#include "support/common.hpp"
#include "support/stats.hpp"

namespace aal {

namespace {

/// Median Euclidean distance over the strict upper triangle of a squared-
/// distance matrix. Selects on the *squared* values (sqrt is monotone, so
/// the selected elements are the same) and takes square roots only of the
/// one or two middle elements — bitwise-identical to sorting the sqrt'ed
/// distances and averaging the middles (what the scalar path did), minus
/// an n^2/2 sqrt pass. Mirrors the element choice of stats.hpp median().
double median_distance(const std::vector<double>& sq, std::size_t n) {
  if (n < 2) return 1.0;
  std::vector<double> off;
  off.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    off.insert(off.end(), sq.data() + i * n + i + 1, sq.data() + i * n + n);
  }
  const std::size_t mid = off.size() / 2;
  std::nth_element(off.begin(), off.begin() + static_cast<std::ptrdiff_t>(mid),
                   off.end());
  const double hi = std::sqrt(off[mid]);
  if (off.size() % 2 == 1) return hi;
  const double lo = std::sqrt(*std::max_element(
      off.begin(), off.begin() + static_cast<std::ptrdiff_t>(mid)));
  return 0.5 * (lo + hi);
}

/// Builds the TED kernel matrix K (row-major n x n) from already z-scored
/// features: the literal Euclidean-distance matrix, or an RBF of it with
/// the median-distance bandwidth heuristic when sigma <= 0. The squared-
/// distance matrix is transformed into K in place (reads stay ahead of the
/// mirrored writes), so only one n x n buffer is ever allocated.
std::vector<double> build_kernel(const dense::Matrix& x,
                                 const TedParams& params) {
  const std::size_t n = x.rows;
  std::vector<double> k;
  dense::pairwise_sq_dist(x, k);

  if (params.kernel == TedKernel::kEuclideanDistance) {
    for (std::size_t i = 0; i < n; ++i) {
      // Diagonal already exactly 0; transform the upper row, mirror down.
      for (std::size_t j = i + 1; j < n; ++j) {
        const double d = std::sqrt(k[i * n + j]);
        k[i * n + j] = d;
        k[j * n + i] = d;
      }
    }
    return k;
  }

  double sigma = params.rbf_sigma;
  if (sigma <= 0.0) {
    sigma = std::max(1e-9, median_distance(k, n));
  }
  const double inv = 1.0 / (2.0 * sigma * sigma);
  for (std::size_t i = 0; i < n; ++i) {
    k[i * n + i] = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double e = std::exp(-k[i * n + j] * inv);
      k[i * n + j] = e;
      k[j * n + i] = e;
    }
  }
  return k;
}

/// Greedy TED selection with the deflation materialized in K: scores come
/// from row norms that dense::deflate_rank_one refreshes in the same pass
/// that applies K <- K - K_x K_x^T / (k(x,x)+mu). Best when K fits in
/// cache, where the write-back is free; O(n^2) read+write per pick.
std::vector<std::size_t> select_materialized(std::vector<double>& k,
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
/// materialized path once K outgrows the cache (see docs/PERF.md).
std::vector<std::size_t> select_lazy(const std::vector<double>& k,
                                     std::size_t n, std::size_t m,
                                     double mu) {
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
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = dense::dot(&k[i * n], col.data(), n);
    }
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

/// Above this row count the n x n kernel matrix outgrows typical L2/L3 and
/// the lazy read-only path wins on memory traffic; below it the
/// materialized path's simpler per-pick work is faster.
constexpr std::size_t kLazySelectThreshold = 1024;

}  // namespace

void standardize_columns(std::vector<std::vector<double>>& features) {
  if (features.empty()) return;
  dense::Matrix x = dense::from_rows(features);
  dense::standardize_columns(x);
  for (std::size_t r = 0; r < x.rows; ++r) {
    std::copy_n(x.row(r), x.cols, features[r].begin());
  }
}

std::vector<std::size_t> ted_select(const dense::Matrix& features,
                                    std::size_t m, const TedParams& params) {
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

  std::vector<double> k = build_kernel(x, params);
  return n > kLazySelectThreshold
             ? select_lazy(k, n, m, params.mu)
             : select_materialized(k, n, m, params.mu);
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
