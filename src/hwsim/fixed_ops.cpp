#include "hwsim/fixed_ops.hpp"

#include <algorithm>

#include "support/common.hpp"

namespace aal {

namespace {

double bytes_of(const std::vector<TensorType>& types) {
  double total = 0.0;
  for (const auto& t : types) total += static_cast<double>(t.num_bytes());
  return total;
}

double fixed_op_latency_at(const Op& op, const std::vector<TensorType>& inputs,
                           double bw_bytes_per_us, double launch_us) {
  // Ops that are views / removed at inference time launch no kernel.
  switch (op.type) {
    case OpType::kInput:
    case OpType::kFlatten:
    case OpType::kDropout:
      return 0.0;
    default:
      break;
  }

  const TensorType out = infer_output_type(op, inputs);
  const double out_bytes = static_cast<double>(out.num_bytes());
  const double in_bytes = bytes_of(inputs);

  double traffic = in_bytes + out_bytes;
  switch (op.type) {
    case OpType::kSoftmax:
      traffic = 3.0 * (in_bytes + out_bytes);  // max, exp-sum, normalize
      break;
    case OpType::kLRN:
      traffic = 2.0 * (in_bytes + out_bytes);  // square-sum window + scale
      break;
    case OpType::kMaxPool2d:
    case OpType::kAvgPool2d: {
      // Each output reads a kxk window; L1/L2 capture most of the overlap,
      // so charge the input once plus a window overhead factor.
      const double window =
          static_cast<double>(op.pool.kernel_h * op.pool.kernel_w);
      traffic = in_bytes * std::min(2.0, 1.0 + window / 16.0) + out_bytes;
      break;
    }
    default:
      break;
  }
  return launch_us + traffic / bw_bytes_per_us;
}

/// Effective bandwidth of simple memory-bound kernels: ~75% of peak.
/// Fixed-function kernels launch back-to-back on one stream, so they pay a
/// reduced share of the launch overhead.
double gpu_fixed_op_latency_us(const Op& op,
                               const std::vector<TensorType>& inputs,
                               const GpuSpec& spec) {
  return fixed_op_latency_at(op, inputs, spec.dram_bw_gbps * 1e3 * 0.75,
                             spec.kernel_launch_overhead_us * 0.6);
}

}  // namespace

double fixed_op_latency_us(const Op& op, const std::vector<TensorType>& inputs,
                           const TargetSpec& target) {
  switch (target.kind) {
    case TargetKind::kGpu:
      return gpu_fixed_op_latency_us(op, inputs, target.gpu);
    case TargetKind::kCpu:
      // CPU fixed ops skip the kernel-launch path entirely (they run inline
      // in the host thread pool), but stream at a lower bandwidth fraction:
      // scalar/short-vector loops rarely saturate DRAM.
      return fixed_op_latency_at(op, inputs, target.dram_bw_gbps() * 1e3 * 0.6,
                                 target.launch_overhead_us() * 0.1);
    case TargetKind::kFpga:
      // Fixed ops fall back to the host/soft cores next to the fabric;
      // streaming DMA gets close to peak, but each op pays a descriptor
      // setup cost well below a full bitstream invocation.
      return fixed_op_latency_at(op, inputs, target.dram_bw_gbps() * 1e3 * 0.8,
                                 target.launch_overhead_us() * 0.05);
  }
  AAL_CHECK(false, "unreachable: unknown target kind");
  return 0.0;
}

double fixed_op_noise_sigma() { return 0.006; }

}  // namespace aal
