// Configuration space: the product of a task's knobs.
//
// Points are addressed two ways:
//   * a flat index in [0, size()) under mixed-radix encoding — compact
//     storage, dedup keys, random sampling;
//   * a choice vector (one entity index per knob) — the coordinate system in
//     which BAO's neighborhoods are defined ("the Euclidean distance between
//     points" in the paper is taken over these coordinates).
// The space is *never* materialized; it reaches 2x10^8 points for the first
// VGG-16 node (matching the paper's 0.2 billion).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "space/knob.hpp"
#include "support/dense.hpp"
#include "support/rng.hpp"

namespace aal {

/// One design point: entity indices per knob plus the cached flat index.
struct Config {
  std::vector<std::int32_t> choices;
  std::int64_t flat = -1;

  bool operator==(const Config& other) const { return flat == other.flat; }
};

class ConfigSpace;

/// A hardware-native feasibility predicate over configurations (Bolt-style
/// "can the backend actually execute this schedule well?"). Constraints are
/// attached to a ConfigSpace by the target's DeviceModel; sampling then
/// rejects infeasible points before they ever reach a tuner proposal.
/// Predicates must be pure functions of (target spec, config) — no hidden
/// state — so pruning decisions are deterministic and schedule-independent.
struct SpaceConstraint {
  /// Stable short name, e.g. "cpu.working-set" or "fpga.pe-array".
  std::string name;
  /// Returns true when the config is feasible on the target.
  std::function<bool(const ConfigSpace&, const Config&)> predicate;
};

class ConfigSpace {
 public:
  ConfigSpace() = default;
  explicit ConfigSpace(std::vector<Knob> knobs);

  std::size_t num_knobs() const { return knobs_.size(); }
  const Knob& knob(std::size_t i) const;
  const std::vector<Knob>& knobs() const { return knobs_; }

  /// Total number of configurations (product of knob sizes).
  std::int64_t size() const { return size_; }

  /// Decodes a flat index into a Config.
  Config at(std::int64_t flat) const;

  /// Encodes a choice vector into its flat index.
  std::int64_t flat_of(const std::vector<std::int32_t>& choices) const;

  /// Builds a Config from a choice vector (computing the flat index).
  Config make(std::vector<std::int32_t> choices) const;

  /// Uniformly samples one configuration. With constraints attached the
  /// draw is retried (bounded) until a feasible point is found; the RNG
  /// consumption is unchanged when no constraints are attached.
  Config sample(Rng& rng) const;

  /// Uniformly samples up to n *distinct* configurations. If n >= size(),
  /// returns the entire space (restricted to feasible points when
  /// constraints are attached). With constraints the rejection loop is
  /// attempt-bounded, so fewer than n points may come back when the
  /// feasible region is small.
  std::vector<Config> sample_distinct(std::int64_t n, Rng& rng) const;

  /// Attaches the target's hardware-native constraints. Replaces any
  /// previous set and resets the pruning statistics.
  void set_constraints(std::vector<SpaceConstraint> constraints);

  const std::vector<SpaceConstraint>& constraints() const {
    return constraints_;
  }
  std::size_t num_constraints() const { return constraints_.size(); }

  /// True when `config` satisfies every attached constraint (trivially true
  /// with none attached). Updates the pruning statistics: one check, plus
  /// one prune when any predicate rejects. Thread-safe.
  bool feasible(const Config& config) const;

  /// Number of feasibility checks performed so far on this space.
  std::int64_t feasibility_checks() const {
    return stats_->checked.load(std::memory_order_relaxed);
  }

  /// Number of configurations rejected by constraints so far.
  std::int64_t pruned_count() const {
    return stats_->pruned.load(std::memory_order_relaxed);
  }

  /// Feature vector for ML models and the TED kernel: concatenated per-knob
  /// features (log2-encoded; see Knob::append_features).
  std::vector<double> features(const Config& config) const;

  /// Writes the feature vector into out[0..feature_dim) without allocating:
  /// each knob's precomputed feature row is copied at its fixed column
  /// offset. Values are bitwise-identical to features().
  void features_into(const Config& config, std::span<double> out) const;

  /// Featurizes a candidate block into one row-major matrix (rows ==
  /// configs.size(), cols == feature_dim()), the input shape the batched
  /// scoring engine consumes. Row i is bitwise features(configs[i]).
  dense::Matrix features_batch(std::span<const Config> configs) const;

  int feature_dim() const { return feature_dim_; }

  /// Squared Euclidean distance in choice space, the metric BAO's
  /// neighborhood radius R refers to.
  double choice_distance_sq(const Config& a, const Config& b) const;

  /// Collects up to max_points distinct configurations whose choice-space
  /// Euclidean distance from `center` is <= radius (the center itself is
  /// excluded). Small balls are enumerated exactly; large ones are sampled
  /// randomly but deterministically given rng. Always returns at least one
  /// point when the space has >= 2 points and radius >= 1.
  std::vector<Config> neighborhood(const Config& center, double radius,
                                   std::size_t max_points, Rng& rng) const;

  /// Squared Euclidean distance in *feature* space (the log2-factor
  /// encoding). The paper defines a configuration's point x as its feature
  /// vector, so this is the alternative reading of BAO's radius metric.
  double feature_distance_sq(const Config& a, const Config& b) const;

  /// Neighborhood under the feature-space metric: up to max_points
  /// distinct configurations within Euclidean feature distance `radius` of
  /// `center` (center excluded). Not an enumeration of the ball: each of
  /// max_points * 60 + 400 attempts mutates 1-3 random knobs of the center
  /// and keeps the result if it is inside the ball, new, and feasible, so
  /// members come back in draw order and a ball smaller than the cap may
  /// be returned incompletely. Deterministic given rng; falls back to one
  /// random distinct point if no attempt lands in the ball.
  ///
  /// Each attempt is scored from per-knob tables of squared distances to
  /// the center, built once per call; the result, the RNG draws and the
  /// feasibility tally are bitwise those of scoring every candidate's full
  /// feature vector.
  std::vector<Config> feature_neighborhood(const Config& center, double radius,
                                           std::size_t max_points,
                                           Rng& rng) const;

  /// Human-readable rendering of a config, e.g.
  /// "#1234 tile_f=[2,4,8,1] tile_y=[1,1,7,8] ...".
  std::string to_string(const Config& config) const;

 private:
  void enumerate_ball(const Config& center, double radius,
                      std::size_t max_points,
                      std::vector<Config>& out) const;
  void sample_ball(const Config& center, double radius,
                   std::size_t max_points, Rng& rng,
                   std::vector<Config>& out) const;

  /// Pruning statistics live behind a shared_ptr so that copies of a space
  /// (ConfigSpace is a value type) keep one aggregate tally, and so const
  /// sampling methods can update it.
  struct ConstraintStats {
    std::atomic<std::int64_t> checked{0};
    std::atomic<std::int64_t> pruned{0};
  };

  std::vector<Knob> knobs_;
  std::int64_t size_ = 0;
  int feature_dim_ = 0;
  /// Column offset of each knob's features in the concatenated vector.
  std::vector<int> feature_offsets_;
  std::vector<SpaceConstraint> constraints_;
  std::shared_ptr<ConstraintStats> stats_ =
      std::make_shared<ConstraintStats>();
};

}  // namespace aal
