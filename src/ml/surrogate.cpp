#include "ml/surrogate.hpp"

#include <algorithm>
#include <cmath>

#include "support/thread_pool.hpp"

namespace aal {

void Surrogate::predict_batch(std::span<const double> features,
                              std::size_t rows, std::span<double> out) const {
  AAL_CHECK(out.size() >= rows, "output span narrower than the batch");
  if (rows == 0) return;
  AAL_CHECK(features.size() % rows == 0,
            "feature span is not a whole number of rows");
  const std::size_t cols = features.size() / rows;
  const auto predict_row = [&](std::size_t r) {
    out[r] = predict(features.subspan(r * cols, cols));
  };
  // Rows are independent, so the fan-out cannot change any value; the
  // threshold only balances pool overhead against per-row model cost.
  constexpr std::size_t kParallelMinRows = 256;
  if (rows >= kParallelMinRows) {
    ThreadPool::shared().parallel_for(rows, predict_row);
  } else {
    for (std::size_t r = 0; r < rows; ++r) predict_row(r);
  }
}

namespace {

/// Solves (A + lambda*I) w = b by Gaussian elimination with partial
/// pivoting. A is symmetric positive semi-definite (normal equations), so
/// this is stable enough at surrogate scale (d ~ 21).
std::vector<double> solve_ridge(std::vector<std::vector<double>> a,
                                std::vector<double> b, double lambda) {
  const std::size_t d = b.size();
  for (std::size_t i = 0; i < d; ++i) a[i][i] += lambda;

  for (std::size_t col = 0; col < d; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < d; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    const double diag = a[col][col];
    if (std::abs(diag) < 1e-12) continue;  // degenerate column -> weight 0
    for (std::size_t r = col + 1; r < d; ++r) {
      const double factor = a[r][col] / diag;
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < d; ++c) a[r][c] -= factor * a[col][c];
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> w(d, 0.0);
  for (std::size_t i = d; i-- > 0;) {
    double acc = b[i];
    for (std::size_t c = i + 1; c < d; ++c) acc -= a[i][c] * w[c];
    w[i] = std::abs(a[i][i]) < 1e-12 ? 0.0 : acc / a[i][i];
  }
  return w;
}

}  // namespace

void RidgeSurrogate::fit(const Dataset& data) {
  AAL_CHECK(!data.empty(), "cannot fit ridge on an empty dataset");
  const std::size_t d = data.num_features() + 1;  // + bias
  std::vector<std::vector<double>> gram(d, std::vector<double>(d, 0.0));
  std::vector<double> rhs(d, 0.0);

  std::vector<double> x(d, 1.0);
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const auto row = data.row(i);
    std::copy(row.begin(), row.end(), x.begin());
    x[d - 1] = 1.0;
    for (std::size_t r = 0; r < d; ++r) {
      for (std::size_t c = 0; c < d; ++c) gram[r][c] += x[r] * x[c];
      rhs[r] += x[r] * data.target(i);
    }
  }
  weights_ = solve_ridge(std::move(gram), std::move(rhs), lambda_);
  fitted_ = true;
}

double RidgeSurrogate::predict(std::span<const double> features) const {
  AAL_CHECK(fitted_, "predict on an unfitted ridge model");
  AAL_CHECK(features.size() + 1 == weights_.size(),
            "feature width mismatch in ridge predict");
  double acc = weights_.back();
  for (std::size_t i = 0; i < features.size(); ++i) {
    acc += weights_[i] * features[i];
  }
  return acc;
}

void KnnSurrogate::fit(const Dataset& data) {
  AAL_CHECK(!data.empty(), "cannot fit kNN on an empty dataset");
  data_ = data;
  fitted_ = true;
}

double KnnSurrogate::predict(std::span<const double> features) const {
  AAL_CHECK(fitted_, "predict on an unfitted kNN model");
  const std::size_t n = data_.num_rows();
  const auto k = static_cast<std::size_t>(
      std::min<std::size_t>(static_cast<std::size_t>(k_), n));

  // (distance^2, target) partial selection of the k nearest.
  std::vector<std::pair<double, double>> dist;
  dist.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = data_.row(i);
    double acc = 0.0;
    for (std::size_t f = 0; f < row.size(); ++f) {
      const double delta = row[f] - features[f];
      acc += delta * delta;
    }
    dist.emplace_back(acc, data_.target(i));
  }
  std::nth_element(dist.begin(),
                   dist.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   dist.end());
  // Inverse-distance weighting over the k nearest.
  double weight_sum = 0.0, value_sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double w = 1.0 / (1e-9 + std::sqrt(dist[i].first));
    weight_sum += w;
    value_sum += w * dist[i].second;
  }
  return value_sum / weight_sum;
}

}  // namespace aal
