// Shared dense-kernel layer.
//
// The tuner's CPU time concentrates in a handful of dense linear-algebra
// shapes: the pairwise-distance/Gram matrices behind TED and BTED
// (Algorithms 1-2) and the per-resample surrogate fits of BS/BAO
// (Algorithms 3-4). Those hot loops share this layer instead of each
// carrying its own scalar triple-loop: a flat row-major matrix, a
// cache-blocked pairwise squared-distance builder, unrolled dot/axpy, a
// one-pass Welford column standardizer, and the rank-one-deflation step of
// TED.
//
// The scalar loops these kernels replaced live in tests/reference
// (`aal_reference`): the unit tests' oracles and the baseline side of
// bench/micro_kernels' BENCH_kernels.json rows. See docs/PERF.md for the
// measured numbers and the benchmark methodology.
#pragma once

#include <cstddef>
#include <vector>

#include "support/common.hpp"

namespace aal {
class ThreadPool;
}  // namespace aal

namespace aal::dense {

/// Minimal owning row-major matrix. No arithmetic of its own — it exists so
/// the kernels below (and their callers) agree on one contiguous layout
/// instead of vector<vector<double>>'s pointer-chased rows.
struct Matrix {
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows(rows), cols(cols), data(rows * cols, 0.0) {}

  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> data;

  double* row(std::size_t i) { return data.data() + i * cols; }
  const double* row(std::size_t i) const { return data.data() + i * cols; }
  double& at(std::size_t i, std::size_t j) { return data[i * cols + j]; }
  double at(std::size_t i, std::size_t j) const { return data[i * cols + j]; }
  bool empty() const { return rows == 0; }
};

/// Copies a vector-of-rows into a Matrix; throws InvalidArgument on ragged
/// input. Zero rows give an empty matrix.
Matrix from_rows(const std::vector<std::vector<double>>& rows);

/// Dot product with four independent accumulators (so the compiler can keep
/// four vector lanes busy without reassociating a single serial sum). The
/// summation order differs from a naive left-to-right loop; callers that
/// need a bit-stable streaming sum use axpy instead.
double dot(const double* a, const double* b, std::size_t n);

/// out[r] = dot(rows + r * stride, x, n) for r in [0, count), each bitwise
/// dot()'s. Four rows at a time share every load of x and keep eight
/// independent add chains busy instead of dot()'s two.
void dot_rows(const double* rows, std::size_t stride, std::size_t count,
              const double* x, std::size_t n, double* out);

/// y += alpha * x, sequential order (bitwise equal to the scalar loop).
void axpy(double alpha, const double* x, double* y, std::size_t n);

/// Pairwise squared Euclidean distances via the Gram identity
/// ||xi-xj||^2 = ||xi||^2 + ||xj||^2 - 2<xi,xj>, blocked over row tiles
/// and clamped at zero (the identity can go ~1 ulp negative for
/// near-duplicate rows). Symmetric with a zero diagonal; written to `out`,
/// caller storage of n*n doubles. Each <xi,xj> is bitwise dot(xi, xj, d),
/// computed by dot_rows. With a `pool`, the row tiles run on it (bitwise
/// the serial result).
void pairwise_sq_dist(const Matrix& x, double* out, ThreadPool* pool = nullptr);

/// `size` doubles in anonymous pages of their own, unmapped (returned to
/// the OS) when the buffer dies. For big transient buffers such as TED's
/// n x n kernels: malloc keeps a freed block of that size in the arena of
/// the thread that allocated it, so a kernel built once on each of several
/// threads would stay resident once per thread. Buffers of 1 MiB and up are
/// aligned and advised for transparent huge pages, which keeps the page
/// faults of a fresh mapping few. Contents start zeroed.
class PageBuffer {
 public:
  explicit PageBuffer(std::size_t size);
  ~PageBuffer();
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  double* data() { return data_; }
  const double* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  double* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t mapped_bytes_ = 0;
};

struct ColumnMoments {
  std::vector<double> mean;
  std::vector<double> stddev;  // population, before the min_stddev floor
};

/// Z-scores the columns of `x` in place using a single Welford pass over
/// the rows (one streaming mean/M2 accumulator per column, row-major
/// traversal), replacing the old two-full-passes-per-column recomputation.
/// Columns whose standard deviation falls below `min_stddev` are constant
/// for all practical purposes and are zeroed. Returns the column moments.
ColumnMoments standardize_columns(Matrix& x, double min_stddev = 1e-12);

/// Sum of squares of each row of the n x n row-major `k` into norm_sq
/// (index-order accumulation).
void row_sq_norms(const double* k, std::size_t n, double* norm_sq);

/// TED's rank-one deflation, K <- K - col*col^T / denom, fused with the
/// row-norm refresh the selection loop needs next: norm_sq[i] is updated to
/// ||K'_i||^2 in the same pass (index-order accumulation, bitwise equal to
/// recomputing the norms afterwards). Rows with col[i] == 0 are untouched.
/// `col` must not alias rows of k being written (callers copy it first).
void deflate_rank_one(double* k, std::size_t n, const double* col,
                      double denom, double* norm_sq);

}  // namespace aal::dense
