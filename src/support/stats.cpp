#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/common.hpp"
#include "support/rng.hpp"

namespace aal {

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  mean_ += delta * nb / nt;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 1) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::vector<double> xs) {
  AAL_CHECK(!xs.empty(), "median of empty vector");
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double percentile(std::vector<double> xs, double p) {
  AAL_CHECK(!xs.empty(), "percentile of empty vector");
  AAL_CHECK(p >= 0.0 && p <= 100.0, "percentile p out of [0,100]: " << p);
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double pearson(std::span<const double> a, std::span<const double> b) {
  AAL_CHECK(a.size() == b.size(), "pearson: size mismatch");
  if (a.size() < 2) return 0.0;
  const double ma = mean(a);
  const double mb = mean(b);
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    sab += da * db;
    saa += da * da;
    sbb += db * db;
  }
  if (saa <= 0.0 || sbb <= 0.0) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

std::vector<double> average_ranks(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return xs[i] < xs[j]; });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    // Tie block [i, j]: every member gets the average 1-based rank.
    const double avg = 0.5 * (static_cast<double>(i) + static_cast<double>(j)) + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

double spearman(std::span<const double> a, std::span<const double> b) {
  AAL_CHECK(a.size() == b.size(), "spearman: size mismatch");
  if (a.size() < 2) return 0.0;
  const auto ra = average_ranks(a);
  const auto rb = average_ranks(b);
  return pearson(ra, rb);
}

double r_squared(std::span<const double> pred, std::span<const double> truth) {
  AAL_CHECK(pred.size() == truth.size(), "r_squared: size mismatch");
  if (truth.empty()) return 0.0;
  const double m = mean(truth);
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ss_res += (truth[i] - pred[i]) * (truth[i] - pred[i]);
    ss_tot += (truth[i] - m) * (truth[i] - m);
  }
  if (ss_tot <= 0.0) return ss_res <= 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double rmse(std::span<const double> pred, std::span<const double> truth) {
  AAL_CHECK(pred.size() == truth.size(), "rmse: size mismatch");
  if (truth.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    acc += (pred[i] - truth[i]) * (pred[i] - truth[i]);
  }
  return std::sqrt(acc / static_cast<double>(truth.size()));
}

ConfidenceInterval bootstrap_mean_ci(std::span<const double> xs,
                                     double alpha, int resamples,
                                     std::uint64_t seed) {
  AAL_CHECK(!xs.empty(), "bootstrap_mean_ci on empty data");
  AAL_CHECK(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
  AAL_CHECK(resamples >= 10, "need at least 10 resamples");

  ConfidenceInterval ci;
  ci.mean = mean(xs);
  if (xs.size() == 1) {
    ci.lo = ci.hi = xs[0];
    return ci;
  }

  Rng rng(seed);
  std::vector<double> means;
  means.reserve(static_cast<std::size_t>(resamples));
  for (int r = 0; r < resamples; ++r) {
    double acc = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      acc += xs[rng.next_index(xs.size())];
    }
    means.push_back(acc / static_cast<double>(xs.size()));
  }
  ci.lo = percentile(means, 100.0 * alpha / 2.0);
  ci.hi = percentile(std::move(means), 100.0 * (1.0 - alpha / 2.0));
  return ci;
}

}  // namespace aal
