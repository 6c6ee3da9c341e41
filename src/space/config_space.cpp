#include "space/config_space.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <unordered_set>

namespace aal {

namespace {

/// Rejection bound for constraint-filtered sampling: generous enough that a
/// feasible region of a few percent is still found with near certainty,
/// small enough that a pathological all-infeasible space degrades to a
/// plain draw instead of an infinite loop.
constexpr int kMaxFeasibleAttempts = 256;

/// Open-addressing set of flat indices (all >= 0): linear probing over a
/// power-of-two table kept at most half full. It is feature_neighborhood's
/// dedup set, which takes a few hundred inserts per call.
class FlatSet {
 public:
  explicit FlatSet(std::size_t expected) {
    std::size_t slots = 16;
    while (slots < 2 * std::min<std::size_t>(expected, 1 << 16)) slots *= 2;
    slots_.assign(slots, kEmpty);
  }

  /// Inserts `flat`; false when it was already present.
  bool insert(std::int64_t flat) {
    if (2 * (size_ + 1) > slots_.size()) {
      const std::vector<std::int64_t> previous = std::move(slots_);
      slots_.assign(previous.size() * 2, kEmpty);
      size_ = 0;
      for (const std::int64_t v : previous) {
        if (v != kEmpty) place(v);
      }
    }
    return place(flat);
  }

 private:
  static constexpr std::int64_t kEmpty = -1;

  bool place(std::int64_t flat) {
    const std::size_t mask = slots_.size() - 1;
    const std::uint64_t hash =
        (static_cast<std::uint64_t>(flat) * 0x9E3779B97F4A7C15ULL) >> 32;
    std::size_t i = static_cast<std::size_t>(hash) & mask;
    while (slots_[i] != kEmpty) {
      if (slots_[i] == flat) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = flat;
    ++size_;
    return true;
  }

  std::vector<std::int64_t> slots_;
  std::size_t size_ = 0;
};

}  // namespace

ConfigSpace::ConfigSpace(std::vector<Knob> knobs) : knobs_(std::move(knobs)) {
  AAL_CHECK(!knobs_.empty(), "config space needs at least one knob");
  size_ = 1;
  feature_dim_ = 0;
  for (const Knob& k : knobs_) {
    AAL_CHECK(k.size() >= 1, "knob '" << k.name() << "' is empty");
    AAL_ASSERT(size_ <= (std::int64_t{1} << 62) / k.size(),
               "config space size overflow");
    size_ *= k.size();
    feature_offsets_.push_back(feature_dim_);
    feature_dim_ += k.feature_width();
  }
}

const Knob& ConfigSpace::knob(std::size_t i) const {
  AAL_CHECK(i < knobs_.size(), "knob index out of range");
  return knobs_[i];
}

Config ConfigSpace::at(std::int64_t flat) const {
  AAL_CHECK(flat >= 0 && flat < size_,
            "flat index " << flat << " out of space size " << size_);
  Config c;
  c.flat = flat;
  c.choices.resize(knobs_.size());
  // Mixed-radix decode, least-significant knob last (so that knob 0 varies
  // slowest; purely a convention, kept stable for record files).
  std::int64_t rest = flat;
  for (std::size_t i = knobs_.size(); i-- > 0;) {
    const std::int64_t base = knobs_[i].size();
    c.choices[i] = static_cast<std::int32_t>(rest % base);
    rest /= base;
  }
  return c;
}

std::int64_t ConfigSpace::flat_of(
    const std::vector<std::int32_t>& choices) const {
  AAL_CHECK(choices.size() == knobs_.size(),
            "choice vector size mismatch: " << choices.size() << " vs "
                                            << knobs_.size());
  std::int64_t flat = 0;
  for (std::size_t i = 0; i < knobs_.size(); ++i) {
    const std::int64_t base = knobs_[i].size();
    AAL_CHECK(choices[i] >= 0 && choices[i] < base,
              "choice " << choices[i] << " out of range for knob '"
                        << knobs_[i].name() << "'");
    flat = flat * base + choices[i];
  }
  return flat;
}

Config ConfigSpace::make(std::vector<std::int32_t> choices) const {
  Config c;
  c.flat = flat_of(choices);
  c.choices = std::move(choices);
  return c;
}

void ConfigSpace::set_constraints(std::vector<SpaceConstraint> constraints) {
  for (const SpaceConstraint& c : constraints) {
    AAL_CHECK(!c.name.empty(), "space constraint needs a name");
    AAL_CHECK(static_cast<bool>(c.predicate),
              "space constraint '" << c.name << "' has no predicate");
  }
  constraints_ = std::move(constraints);
  stats_ = std::make_shared<ConstraintStats>();
}

bool ConfigSpace::feasible(const Config& config) const {
  if (constraints_.empty()) return true;
  stats_->checked.fetch_add(1, std::memory_order_relaxed);
  for (const SpaceConstraint& c : constraints_) {
    if (!c.predicate(*this, config)) {
      stats_->pruned.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  return true;
}

Config ConfigSpace::sample(Rng& rng) const {
  Config c = at(static_cast<std::int64_t>(
      rng.next_index(static_cast<std::uint64_t>(size_))));
  if (constraints_.empty()) return c;
  // Bounded rejection: almost-everywhere-infeasible spaces fall back to the
  // last draw rather than looping forever — the device model rejects that
  // config as an invalid build, so nothing downstream relies on the sample
  // being feasible.
  for (int attempt = 0; attempt < kMaxFeasibleAttempts; ++attempt) {
    if (feasible(c)) return c;
    c = at(static_cast<std::int64_t>(
        rng.next_index(static_cast<std::uint64_t>(size_))));
  }
  return c;
}

std::vector<Config> ConfigSpace::sample_distinct(std::int64_t n,
                                                 Rng& rng) const {
  std::vector<Config> out;
  if (n >= size_) {
    out.reserve(static_cast<std::size_t>(size_));
    for (std::int64_t i = 0; i < size_; ++i) {
      Config c = at(i);
      if (constraints_.empty() || feasible(c)) out.push_back(std::move(c));
    }
    return out;
  }
  std::unordered_set<std::int64_t> seen;
  seen.reserve(static_cast<std::size_t>(n) * 2);
  out.reserve(static_cast<std::size_t>(n));
  // Unconstrained draws always terminate because n < size(); constrained
  // draws are attempt-bounded (the feasible region may hold fewer than n
  // points), so the result may come back short.
  std::int64_t attempts_left =
      constraints_.empty() ? std::numeric_limits<std::int64_t>::max()
                           : n * kMaxFeasibleAttempts + kMaxFeasibleAttempts;
  while (static_cast<std::int64_t>(out.size()) < n && attempts_left-- > 0) {
    Config c = at(static_cast<std::int64_t>(
        rng.next_index(static_cast<std::uint64_t>(size_))));
    if (!constraints_.empty() && !feasible(c)) continue;
    if (seen.insert(c.flat).second) out.push_back(std::move(c));
  }
  return out;
}

std::vector<double> ConfigSpace::features(const Config& config) const {
  std::vector<double> out(static_cast<std::size_t>(feature_dim_));
  features_into(config, out);
  return out;
}

void ConfigSpace::features_into(const Config& config,
                                std::span<double> out) const {
  AAL_CHECK(config.choices.size() == knobs_.size(),
            "config does not belong to this space");
  AAL_CHECK(out.size() >= static_cast<std::size_t>(feature_dim_),
            "feature output span narrower than feature_dim");
  for (std::size_t i = 0; i < knobs_.size(); ++i) {
    const Knob& k = knobs_[i];
    const double* row = k.feature_row(config.choices[i]);
    std::copy(row, row + k.feature_width(),
              out.data() + feature_offsets_[i]);
  }
}

dense::Matrix ConfigSpace::features_batch(
    std::span<const Config> configs) const {
  dense::Matrix out(configs.size(), static_cast<std::size_t>(feature_dim_));
  for (std::size_t r = 0; r < configs.size(); ++r) {
    features_into(configs[r],
                  std::span<double>{out.row(r),
                                    static_cast<std::size_t>(feature_dim_)});
  }
  return out;
}

double ConfigSpace::choice_distance_sq(const Config& a,
                                       const Config& b) const {
  AAL_CHECK(a.choices.size() == knobs_.size() &&
                b.choices.size() == knobs_.size(),
            "configs do not belong to this space");
  double acc = 0.0;
  for (std::size_t i = 0; i < knobs_.size(); ++i) {
    const double d = static_cast<double>(a.choices[i]) - b.choices[i];
    acc += d * d;
  }
  return acc;
}

void ConfigSpace::enumerate_ball(const Config& center, double radius,
                                 std::size_t max_points,
                                 std::vector<Config>& out) const {
  const double r2 = radius * radius;
  std::vector<std::int32_t> current(knobs_.size(), 0);
  // Depth-first product of per-knob windows with a running distance budget.
  auto rec = [&](auto&& self, std::size_t knob_idx, double used) -> void {
    if (knob_idx == knobs_.size()) {
      Config c = make(current);
      if (c.flat != center.flat &&
          (constraints_.empty() || feasible(c))) {
        out.push_back(std::move(c));
      }
      return;
    }
    const double remaining = r2 - used;
    const auto span = static_cast<std::int32_t>(std::floor(std::sqrt(remaining)));
    const std::int32_t c0 = center.choices[knob_idx];
    const std::int32_t lo = std::max<std::int32_t>(0, c0 - span);
    const std::int32_t hi = std::min<std::int32_t>(
        static_cast<std::int32_t>(knobs_[knob_idx].size()) - 1, c0 + span);
    for (std::int32_t v = lo; v <= hi; ++v) {
      const double d = static_cast<double>(v - c0);
      if (used + d * d > r2) continue;
      current[knob_idx] = v;
      self(self, knob_idx + 1, used + d * d);
    }
  };
  rec(rec, 0, 0.0);
  (void)max_points;  // subsampling is handled by the caller
}

void ConfigSpace::sample_ball(const Config& center, double radius,
                              std::size_t max_points, Rng& rng,
                              std::vector<Config>& out) const {
  const double r2 = radius * radius;
  const auto span = static_cast<std::int32_t>(std::floor(radius));
  std::unordered_set<std::int64_t> seen{center.flat};
  const std::size_t max_attempts = max_points * 40 + 200;
  std::vector<std::int32_t> choices(knobs_.size());
  for (std::size_t attempt = 0;
       attempt < max_attempts && out.size() < max_points; ++attempt) {
    double used = 0.0;
    bool valid = true;
    for (std::size_t i = 0; i < knobs_.size(); ++i) {
      const auto offset =
          static_cast<std::int32_t>(rng.next_int(-span, span));
      const std::int32_t v = center.choices[i] + offset;
      if (v < 0 || v >= static_cast<std::int32_t>(knobs_[i].size())) {
        valid = false;
        break;
      }
      used += static_cast<double>(offset) * offset;
      if (used > r2) {
        valid = false;
        break;
      }
      choices[i] = v;
    }
    if (!valid) continue;
    Config c = make(choices);
    if (!seen.insert(c.flat).second) continue;
    if (!constraints_.empty() && !feasible(c)) continue;
    out.push_back(std::move(c));
  }
}

std::vector<Config> ConfigSpace::neighborhood(const Config& center,
                                              double radius,
                                              std::size_t max_points,
                                              Rng& rng) const {
  AAL_CHECK(radius >= 0.0, "neighborhood radius must be >= 0");
  std::vector<Config> out;
  if (max_points == 0) return out;

  // Estimate the bounding box of the ball to pick a strategy.
  const auto span = static_cast<std::int64_t>(std::floor(radius));
  double box = 1.0;
  for (const Knob& k : knobs_) {
    box *= static_cast<double>(std::min<std::int64_t>(2 * span + 1, k.size()));
    if (box > 4.0 * static_cast<double>(max_points) * 16.0) break;
  }

  if (box <= 4.0 * static_cast<double>(max_points) * 16.0) {
    enumerate_ball(center, radius, max_points, out);
    if (out.size() > max_points) {
      // Unbiased subsample of the exact ball.
      rng.shuffle(out);
      out.resize(max_points);
    }
  } else {
    sample_ball(center, radius, max_points, rng, out);
  }

  // Degenerate center (e.g. radius too small near a corner of a tiny
  // space): fall back to one random distinct point so BAO always has a
  // candidate to evaluate.
  if (out.empty() && size_ >= 2) {
    for (int i = 0; i < 64 && out.empty(); ++i) {
      Config c = sample(rng);
      if (c.flat != center.flat) out.push_back(std::move(c));
    }
  }
  return out;
}

double ConfigSpace::feature_distance_sq(const Config& a,
                                        const Config& b) const {
  const std::vector<double> fa = features(a);
  const std::vector<double> fb = features(b);
  double acc = 0.0;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    const double d = fa[i] - fb[i];
    acc += d * d;
  }
  return acc;
}

std::vector<Config> ConfigSpace::feature_neighborhood(const Config& center,
                                                      double radius,
                                                      std::size_t max_points,
                                                      Rng& rng) const {
  AAL_CHECK(radius >= 0.0, "neighborhood radius must be >= 0");
  std::vector<Config> out;
  if (max_points == 0) return out;

  // The squared feature distance separates by knob: a config's features are
  // its knobs' feature rows side by side. So tabulate, per knob and choice,
  // the squared distance of that row to the centre's row, accumulated
  // column by column exactly as the whole-vector sum accumulates it.
  struct KnobTable {
    std::uint64_t size;   // draw range
    std::int64_t stride;  // mixed-radix place value in the flat index
    const double* dist;   // [size] squared distance to the centre's row
  };
  const std::int64_t center_flat = flat_of(center.choices);
  const std::size_t n = knobs_.size();
  std::vector<KnobTable> table(n);
  std::vector<double> dist(static_cast<std::size_t>(std::accumulate(
      knobs_.begin(), knobs_.end(), std::int64_t{0},
      [](std::int64_t acc, const Knob& k) { return acc + k.size(); })));
  double* next = dist.data();
  std::int64_t stride = size_;
  for (std::size_t k = 0; k < n; ++k) {
    const Knob& knob = knobs_[k];
    stride /= knob.size();
    table[k] = {static_cast<std::uint64_t>(knob.size()), stride, next};
    const double* c = knob.feature_row(center.choices[k]);
    for (std::int64_t v = 0; v < knob.size(); ++v) {
      const double* row = knob.feature_row(v);
      double acc = 0.0;
      for (int j = 0; j < knob.feature_width(); ++j) {
        const double d = row[j] - c[j];
        acc += d * d;
      }
      *next++ = acc;
    }
  }

  const double r2 = radius * radius;
  FlatSet seen(max_points);
  const std::size_t max_attempts = max_points * 60 + 400;
  for (std::size_t attempt = 0;
       attempt < max_attempts && out.size() < max_points; ++attempt) {
    // Mutate 1-3 random knobs of the center.
    std::size_t knob_of[3];
    std::int32_t value_of[3];
    const auto mutations = static_cast<int>(1 + rng.next_index(3));
    for (int m = 0; m < mutations; ++m) {
      knob_of[m] = static_cast<std::size_t>(rng.next_index(n));
      value_of[m] =
          static_cast<std::int32_t>(rng.next_index(table[knob_of[m]].size));
    }
    // Every term of the distance is non-negative, so a single mutated knob
    // beyond r^2 rejects the candidate. A knob drawn twice keeps its last
    // value, so only last draws count.
    bool last[3];
    bool reject = false;
    for (int i = 0; i < mutations; ++i) {
      last[i] = true;
      for (int j = i + 1; j < mutations; ++j) {
        last[i] &= knob_of[j] != knob_of[i];
      }
      reject |= last[i] & (table[knob_of[i]].dist[value_of[i]] > r2);
    }
    if (reject) continue;

    // The knobs that changed, ordered by knob, i.e. by column; a knob back
    // at the centre's choice adds exact zeros and is skipped.
    std::size_t knob_at[3];
    std::int32_t value_at[3];
    int kept = 0;
    for (int i = 0; i < mutations; ++i) {
      if (!last[i] || value_of[i] == center.choices[knob_of[i]]) continue;
      int p = kept++;
      for (; p > 0 && knob_at[p - 1] > knob_of[i]; --p) {
        knob_at[p] = knob_at[p - 1];
        value_at[p] = value_at[p - 1];
      }
      knob_at[p] = knob_of[i];
      value_at[p] = value_of[i];
    }
    // The first knob's entry is the running sum after its columns; later
    // knobs' columns are added one by one, as the whole-vector sum does.
    double acc = kept == 0 ? 0.0 : table[knob_at[0]].dist[value_at[0]];
    for (int i = 1; i < kept && acc <= r2; ++i) {
      const Knob& knob = knobs_[knob_at[i]];
      const double* row = knob.feature_row(value_at[i]);
      const double* c = knob.feature_row(center.choices[knob_at[i]]);
      for (int j = 0; j < knob.feature_width() && acc <= r2; ++j) {
        const double d = row[j] - c[j];
        acc += d * d;
      }
    }
    if (acc > r2) continue;

    std::int64_t flat = center_flat;
    for (int i = 0; i < kept; ++i) {
      flat += (value_at[i] - center.choices[knob_at[i]]) *
              table[knob_at[i]].stride;
    }
    if (flat == center.flat || !seen.insert(flat)) continue;
    Config candidate;
    candidate.choices = center.choices;
    for (int i = 0; i < kept; ++i) candidate.choices[knob_at[i]] = value_at[i];
    candidate.flat = flat;
    if (!constraints_.empty() && !feasible(candidate)) continue;
    out.push_back(std::move(candidate));
  }

  if (out.empty() && size_ >= 2) {
    for (int i = 0; i < 64 && out.empty(); ++i) {
      Config c = sample(rng);
      if (c.flat != center.flat) out.push_back(std::move(c));
    }
  }
  return out;
}

std::string ConfigSpace::to_string(const Config& config) const {
  std::ostringstream os;
  os << '#' << config.flat;
  for (std::size_t i = 0; i < knobs_.size(); ++i) {
    os << ' ' << knobs_[i].name() << '='
       << knobs_[i].entity_to_string(config.choices[i]);
  }
  return os.str();
}

}  // namespace aal
