#include "support/dense.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <new>

#include "support/thread_pool.hpp"

namespace aal::dense {

namespace {

/// Row-tile edge of pairwise_sq_dist: two 48-row tiles of a d<=32
/// feature matrix stay comfortably inside L1 while the inner loops sweep
/// their cross product.
constexpr std::size_t kRowTile = 48;

/// Two doubles in one SSE register; lane-wise + and * are the scalar IEEE
/// operations.
typedef double v2d __attribute__((vector_size(16)));

v2d load2(const double* p) {
  v2d v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// dot(rows + r * stride, x, n) for r = 0..3. Each row keeps dot()'s four
/// strided accumulators — (s0, s1) and (s2, s3) as the lanes of two
/// registers — and its ((s0+s1)+(s2+s3))+tail reduction, so every result
/// is bitwise what dot() returns.
void dot4(const double* __restrict rows, std::size_t stride,
          const double* __restrict x, std::size_t n, double* __restrict out) {
  v2d lo[4] = {}, hi[4] = {};
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    const v2d x_lo = load2(x + c);
    const v2d x_hi = load2(x + c + 2);
    for (std::size_t r = 0; r < 4; ++r) {
      const double* row = rows + r * stride + c;
      lo[r] += load2(row) * x_lo;
      hi[r] += load2(row + 2) * x_hi;
    }
  }
  double tail[4] = {};
  for (; c < n; ++c) {
    for (std::size_t r = 0; r < 4; ++r) tail[r] += rows[r * stride + c] * x[c];
  }
  for (std::size_t r = 0; r < 4; ++r) {
    out[r] = ((lo[r][0] + lo[r][1]) + (hi[r][0] + hi[r][1])) + tail[r];
  }
}

}  // namespace

Matrix from_rows(const std::vector<std::vector<double>>& rows) {
  Matrix out;
  if (rows.empty()) return out;
  out.rows = rows.size();
  out.cols = rows[0].size();
  out.data.reserve(out.rows * out.cols);
  for (const auto& row : rows) {
    AAL_CHECK(row.size() == out.cols, "dense::from_rows: ragged rows ("
                                          << row.size() << " vs " << out.cols
                                          << ")");
    out.data.insert(out.data.end(), row.begin(), row.end());
  }
  return out;
}

double dot(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += a[i] * b[i];
  return ((s0 + s1) + (s2 + s3)) + tail;
}

void dot_rows(const double* rows, std::size_t stride, std::size_t count,
              const double* x, std::size_t n, double* out) {
  std::size_t r = 0;
  for (; r + 4 <= count; r += 4) dot4(rows + r * stride, stride, x, n, out + r);
  for (; r < count; ++r) out[r] = dot(rows + r * stride, x, n);
}

void axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

double sq_dist(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

void pairwise_sq_dist(const Matrix& x, double* out, ThreadPool* pool) {
  const std::size_t n = x.rows;
  const std::size_t d = x.cols;
  std::vector<double> norms(n);
  const double* __restrict xd = x.data.data();
  for (std::size_t i = 0; i < n; ++i) norms[i] = dot(xd + i * d, xd + i * d, d);
  double* __restrict o = out;
  const double* __restrict nrm = norms.data();
  // One row tile against every tile at or right of it. A tile owns the
  // pairs (i, j > i) of its rows, including their mirrored stores, so tiles
  // are independent and may run on different workers.
  const auto tile = [&](std::size_t t) {
    const std::size_t ib = t * kRowTile;
    const std::size_t ie = std::min(n, ib + kRowTile);
    for (std::size_t jb = ib; jb < n; jb += kRowTile) {
      const std::size_t je = std::min(n, jb + kRowTile);
      for (std::size_t i = ib; i < ie; ++i) {
        if (jb <= i) o[i * n + i] = 0.0;  // exact-zero diagonal by fiat
        const std::size_t j0 = std::max(i + 1, jb);
        double g[kRowTile];
        dot_rows(xd + j0 * d, d, je - j0, xd + i * d, d, g);
        for (std::size_t j = j0; j < je; ++j) {
          const double sq = nrm[i] + nrm[j] - 2.0 * g[j - j0];
          const double clamped = std::max(sq, 0.0);
          o[i * n + j] = clamped;
          o[j * n + i] = clamped;
        }
      }
    }
  };
  const std::size_t tiles = (n + kRowTile - 1) / kRowTile;
  if (pool != nullptr && tiles > 1) {
    pool->parallel_for(tiles, tile);
  } else {
    for (std::size_t t = 0; t < tiles; ++t) tile(t);
  }
}

namespace {

constexpr std::size_t kHugePage = std::size_t{2} << 20;

std::size_t round_up(std::size_t bytes, std::size_t unit) {
  return (bytes + unit - 1) / unit * unit;
}

}  // namespace

PageBuffer::PageBuffer(std::size_t size) : size_(size) {
  if (size == 0) return;
  const std::size_t bytes = size * sizeof(double);
  const bool huge = bytes >= (std::size_t{1} << 20);
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  mapped_bytes_ = round_up(bytes, huge ? kHugePage : page);
  // A huge page needs a 2 MiB-aligned range: over-map, then trim both ends.
  const std::size_t reserve = mapped_bytes_ + (huge ? kHugePage : 0);
  void* raw = mmap(nullptr, reserve, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  auto* base = static_cast<char*>(raw);
  char* start = base;
  if (huge) {
    start = reinterpret_cast<char*>(
        round_up(reinterpret_cast<std::uintptr_t>(base), kHugePage));
    if (start > base) munmap(base, static_cast<std::size_t>(start - base));
    char* end = start + mapped_bytes_;
    if (base + reserve > end) {
      munmap(end, static_cast<std::size_t>(base + reserve - end));
    }
    madvise(start, mapped_bytes_, MADV_HUGEPAGE);  // a hint; may be refused
  }
  data_ = reinterpret_cast<double*>(start);
}

PageBuffer::~PageBuffer() {
  if (data_ != nullptr) munmap(data_, mapped_bytes_);
}

ColumnMoments standardize_columns(Matrix& x, double min_stddev) {
  ColumnMoments moments;
  moments.mean.assign(x.cols, 0.0);
  moments.stddev.assign(x.cols, 0.0);
  if (x.rows == 0 || x.cols == 0) return moments;

  // One Welford pass, row-major so the matrix streams through cache once.
  std::vector<double> m2(x.cols, 0.0);
  for (std::size_t r = 0; r < x.rows; ++r) {
    const double* row = x.row(r);
    const double inv_count = 1.0 / static_cast<double>(r + 1);
    for (std::size_t c = 0; c < x.cols; ++c) {
      const double delta = row[c] - moments.mean[c];
      moments.mean[c] += delta * inv_count;
      m2[c] += delta * (row[c] - moments.mean[c]);
    }
  }
  std::vector<double> scale(x.cols, 0.0);
  for (std::size_t c = 0; c < x.cols; ++c) {
    moments.stddev[c] = std::sqrt(m2[c] / static_cast<double>(x.rows));
    scale[c] = moments.stddev[c] < min_stddev ? 0.0 : 1.0 / moments.stddev[c];
  }
  for (std::size_t r = 0; r < x.rows; ++r) {
    double* row = x.row(r);
    for (std::size_t c = 0; c < x.cols; ++c) {
      row[c] = scale[c] == 0.0 ? 0.0 : (row[c] - moments.mean[c]) * scale[c];
    }
  }
  return moments;
}

void row_sq_norms(const double* k, std::size_t n, double* norm_sq) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = k + i * n;
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += row[j] * row[j];
    norm_sq[i] = acc;
  }
}

void deflate_rank_one(double* k, std::size_t n, const double* col,
                      double denom, double* norm_sq) {
  for (std::size_t i = 0; i < n; ++i) {
    const double ci = col[i] / denom;
    if (ci == 0.0) continue;  // row untouched; its cached norm stays valid
    double* row = k + i * n;
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      row[j] -= ci * col[j];
      acc += row[j] * row[j];
    }
    norm_sq[i] = acc;
  }
}

}  // namespace aal::dense
