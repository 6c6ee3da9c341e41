// Transductive Experimental Design — Algorithm 1 of the paper.
//
// Given a candidate set V (rows of a feature matrix), greedily selects m
// configurations maximizing the TED score ||K_v||^2 / (k(v,v) + mu) with
// rank-one deflation K <- K - K_x K_x^T / (k(x,x) + mu) after each pick
// (Yu, Bi & Tresp, ICML'06). The paper computes K from Euclidean distances
// of the configuration vectors; an RBF kernel variant is provided for the
// ablation bench (the classical TED formulation). Features are z-scored
// over V first so no knob dominates the metric.
#pragma once

#include <cstddef>
#include <vector>

#include "support/dense.hpp"

namespace aal {

class ThreadPool;

enum class TedKernel {
  kEuclideanDistance,  // K[i][j] = ||x_i - x_j||   (paper text)
  kRbf,                // K[i][j] = exp(-||x_i-x_j||^2 / (2 sigma^2))
};

struct TedParams {
  double mu = 0.1;
  /// The paper's text says K "is computed as Euclidean distance", but a raw
  /// distance matrix is not PSD: the rank-one deflation then amplifies the
  /// matrix by ~max(d)^2/mu per pick and the selection degenerates into
  /// near-duplicates after a handful of rounds (observable in the tests).
  /// Algorithm 1 originates from Yu/Bi/Tresp's TED, which assumes a proper
  /// kernel, so the default here is an RBF kernel *of* the Euclidean
  /// distance (median-bandwidth heuristic); the literal distance matrix
  /// stays available for the ablation bench.
  TedKernel kernel = TedKernel::kRbf;
  /// RBF bandwidth; <= 0 selects the median-distance heuristic.
  double rbf_sigma = 0.0;
};

/// Returns indices (into `features`) of the m selected rows, in selection
/// order. If m >= |V| all indices are returned. All rows must share width.
///
/// The selection runs on the shared dense-kernel layer
/// (`support/dense.hpp`): a register-blocked pairwise squared-distance
/// build, then a path chosen by the kernel type — the RBF kernel (PSD)
/// always takes the read-only lazy deflation, the literal distance matrix
/// (non-PSD) the materialized one; see docs/PERF.md for the measured costs.
/// With a `pool`, the kernel build and the lazy path's per-pick mat-vec
/// split over row blocks on it; every row's arithmetic is unchanged, so the
/// picks are bitwise those of the serial call. The caller may itself be
/// running on `pool` (BTED's batch TEDs do).
std::vector<std::size_t> ted_select(const dense::Matrix& features,
                                    std::size_t m,
                                    const TedParams& params = {},
                                    ThreadPool* pool = nullptr);

/// Convenience adapter for vector-of-rows callers (copies into a
/// dense::Matrix). All rows must share width.
std::vector<std::size_t> ted_select(
    const std::vector<std::vector<double>>& features, std::size_t m,
    const TedParams& params = {});

/// The stages of ted_select on already z-scored features, exposed for the
/// equivalence tests and bench/micro_kernels' build/selection split.
namespace ted_detail {

/// Median Euclidean distance over the strict upper triangle of the n x n
/// squared-distance matrix `sq` (entries non-negative): bitwise what sorting
/// the distances and averaging the middle one or two gives. A radix
/// histogram of the bit patterns finds the bucket(s) holding the middle
/// ranks, so only those values are copied and partially sorted.
double median_distance(const std::vector<double>& sq, std::size_t n);

/// The n x n kernel K: the literal distance matrix, or an RBF of it with
/// the median-distance bandwidth when rbf_sigma <= 0. The squared-distance
/// buffer is transformed in place, so only one n x n buffer is allocated.
/// `pool` as for ted_select.
std::vector<double> build_kernel(const dense::Matrix& x,
                                 const TedParams& params,
                                 ThreadPool* pool = nullptr);

/// Greedy selection deflating K in place (K is overwritten).
std::vector<std::size_t> select_materialized(std::vector<double>& k,
                                             std::size_t n, std::size_t m,
                                             double mu);

/// Greedy selection with lazy deflation: K is only read. Pick-equal to
/// select_materialized on PSD kernels (proven by the TedPickEquality
/// suite), not bitwise: its floating-point work differs.
std::vector<std::size_t> select_lazy(const std::vector<double>& k,
                                     std::size_t n, std::size_t m, double mu,
                                     ThreadPool* pool = nullptr);

}  // namespace ted_detail

/// Z-scores columns in place over the given rows (helper shared with BTED;
/// exposed for tests). Constant columns become all-zero.
void standardize_columns(std::vector<std::vector<double>>& features);

}  // namespace aal
