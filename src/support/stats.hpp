// Small descriptive-statistics helpers used by the measurement layer, the
// experiment harnesses and the tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace aal {

/// Streaming mean/variance accumulator (Welford's algorithm). Numerically
/// stable for the long (600-run) latency series the experiments produce.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (n_ == 1 || x < min_) min_ = x;
    if (n_ == 1 || x > max_) max_ = x;
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance (the paper reports variance over the 600 runs).
  double variance() const {
    return n_ ? m2_ / static_cast<double>(n_) : 0.0;
  }
  /// Unbiased sample variance.
  double sample_variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Merges another accumulator (Chan et al. parallel variant).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of a span; 0 for empty input.
double mean(std::span<const double> xs);

/// Population variance of a span; 0 for fewer than one element.
double variance(std::span<const double> xs);

double stddev(std::span<const double> xs);

/// Median (average of the two middle elements for even sizes). Copies.
double median(std::vector<double> xs);

/// Linear-interpolation percentile, p in [0, 100]. Copies.
double percentile(std::vector<double> xs, double p);

/// Pearson correlation of two equal-length series; 0 if degenerate.
double pearson(std::span<const double> a, std::span<const double> b);

/// Spearman rank correlation; 0 if degenerate. Ties share averaged ranks.
double spearman(std::span<const double> a, std::span<const double> b);

/// Coefficient of determination of predictions vs. targets.
double r_squared(std::span<const double> pred, std::span<const double> truth);

/// Root-mean-square error.
double rmse(std::span<const double> pred, std::span<const double> truth);

/// Ranks with ties averaged, 1-based (helper exposed for tests).
std::vector<double> average_ranks(std::span<const double> xs);

/// Two-sided percentile-bootstrap confidence interval for the mean.
struct ConfidenceInterval {
  double mean = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

/// Resamples `xs` `resamples` times (with replacement) and returns the
/// [alpha/2, 1-alpha/2] percentile interval of the resampled means.
/// Deterministic given `seed`. Used by the experiment harnesses to decide
/// whether a tuner difference is real at the configured trial count.
ConfidenceInterval bootstrap_mean_ci(std::span<const double> xs,
                                     double alpha = 0.05,
                                     int resamples = 2000,
                                     std::uint64_t seed = 1);

}  // namespace aal
