// Latency model for non-tunable (fixed-function) graph operators.
//
// Pooling, softmax, LRN, standalone element-wise ops and copies are simple
// bandwidth-bound kernels whose performance barely depends on scheduling;
// TVM emits them with a fixed default schedule. The end-to-end latency
// pipeline charges each non-tunable fused group this cost.
#pragma once

#include <vector>

#include "hwsim/target.hpp"
#include "ir/op.hpp"
#include "tensor/shape.hpp"

namespace aal {

/// Deterministic latency (microseconds) of one fixed-function op: a
/// bandwidth-bound cost model charged at the target's off-chip bandwidth
/// and launch overhead. Returns 0 for ops with no runtime kernel (input,
/// flatten, inference-time dropout).
double fixed_op_latency_us(const Op& op, const std::vector<TensorType>& inputs,
                           const TargetSpec& target);

/// Run-to-run noise sigma used for fixed ops (small, bandwidth-kernel-like).
double fixed_op_noise_sigma();

}  // namespace aal
