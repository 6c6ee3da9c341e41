// Simulated measurement device.
//
// Wraps the analytical KernelModel with a stochastic measurement layer: each
// "on-chip run" draws log-normal multiplicative noise (scale from the
// profile's noise_sigma) plus a small absolute launch jitter, mimicking the
// run-to-run variation AutoTVM sees from a real GPU. The device also tracks
// the total number of measurements, which is the budget currency of every
// experiment in the paper.
//
// Noise is *counter-based*: every timing sample is a pure function of
// (device seed, config flat index, repeat index), derived through a
// splitmix64 mix rather than a shared sequential generator. Two devices with
// the same seed therefore agree on every sample regardless of the order in
// which configurations are measured — the property that makes parallel
// measurement (and resume-from-records) bitwise-deterministic.
//
// Measurement consumers program against the abstract Device interface so
// decorators can be layered on top; FaultyDevice (hwsim/fault.hpp) wraps any
// Device with deterministic transient-fault injection. run() takes an
// `attempt` index for that purpose: the underlying timing stream ignores it
// (a retried measurement reproduces the fault-free values bitwise), while
// fault decorators key their injection decision on it.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "hwsim/kernel_model.hpp"
#include "hwsim/target.hpp"
#include "support/rng.hpp"

namespace aal {

struct MeasureOutcome {
  bool ok = false;
  std::string error;           // for failed builds/launches
  double mean_time_us = 0.0;   // average over the repeats
  double gflops = 0.0;         // derived from mean_time_us
  std::vector<double> times_us;  // individual repeats

  /// A transient failure is worth retrying (injected timeout, flaky launch,
  /// dead worker, ...); permanent failures (invalid build) are not.
  bool transient = false;
  /// Short fault-kind name when transient ("timeout", "launch_error", ...).
  std::string fault;
};

/// Abstract measurement device: the seam the Measurer programs against.
class Device {
 public:
  virtual ~Device() = default;

  /// The backend-neutral target this device measures on. Must return a
  /// reference to storage owned by the device chain (never a temporary):
  /// decorators forward it by reference, so a by-value implementation would
  /// dangle through the decorator — see the lifetime test in
  /// tests/hwsim/test_faults.cpp.
  virtual const TargetSpec& spec() const = 0;

  /// Simulates `repeats` timed runs of the profiled kernel identified by its
  /// flat config index. `attempt` is the zero-based retry ordinal of this
  /// measurement; implementations must keep the *timing* outcome independent
  /// of it so retries after transient faults reproduce the fault-free values
  /// bitwise. Thread-safe and pure in (seed, config_flat, repeat, attempt).
  virtual MeasureOutcome run(const KernelProfile& profile, std::int64_t flops,
                             int repeats, std::int64_t config_flat,
                             int attempt) const = 0;

  /// Convenience: the first attempt.
  MeasureOutcome run(const KernelProfile& profile, std::int64_t flops,
                     int repeats, std::int64_t config_flat) const {
    return run(profile, flops, repeats, config_flat, 0);
  }
};

class SimulatedDevice : public Device {
 public:
  explicit SimulatedDevice(TargetSpec spec, std::uint64_t seed = 1);

  using Device::run;

  const TargetSpec& spec() const override { return spec_; }

  /// Invalid profiles yield ok == false with gflops == 0 (AutoTVM error
  /// records). The outcome depends only on (seed, config_flat, repeat
  /// index) — never on other calls, and never on `attempt`.
  MeasureOutcome run(const KernelProfile& profile, std::int64_t flops,
                     int repeats, std::int64_t config_flat,
                     int attempt) const override;

  /// One noisy timing sample for an already-validated profile; `repeat`
  /// selects which independent draw of the (seed, flat) stream to return.
  double sample_time_us(const KernelProfile& profile, std::int64_t config_flat,
                        int repeat) const;

  /// Total successful timed runs so far (diagnostics only; tuners count
  /// *measured configurations*, not repeats).
  std::int64_t total_runs() const {
    return total_runs_.load(std::memory_order_relaxed);
  }

 private:
  TargetSpec spec_;
  std::uint64_t seed_ = 1;
  mutable std::atomic<std::int64_t> total_runs_{0};
};

}  // namespace aal
