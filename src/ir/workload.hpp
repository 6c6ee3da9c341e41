// Tunable-task workload descriptions.
//
// In TVM/AutoTVM terms a *workload* identifies one tensor computation to be
// scheduled: the operator kind plus its static shape parameters. Node-wise
// optimization (the paper's Fig. 1) extracts one workload per fused graph
// node and tunes each independently; identical workloads across a model (or
// across models, for transfer learning) share a task.
#pragma once

#include <cstdint>
#include <string>

#include "tensor/shape.hpp"

namespace aal {

/// Direct (im2col-style tiled) 2D convolution, NCHW/OIHW.
struct Conv2dWorkload {
  std::int64_t batch = 1;
  std::int64_t in_channels = 0;
  std::int64_t height = 0;   // input spatial height
  std::int64_t width = 0;    // input spatial width
  std::int64_t out_channels = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride_h = 1;
  std::int64_t stride_w = 1;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;
  std::int64_t groups = 1;  // ==in_channels for depthwise
  DType dtype = DType::kFloat32;

  std::int64_t out_height() const {
    return (height + 2 * pad_h - kernel_h) / stride_h + 1;
  }
  std::int64_t out_width() const {
    return (width + 2 * pad_w - kernel_w) / stride_w + 1;
  }
  bool is_depthwise() const {
    return groups == in_channels && groups == out_channels && groups > 1;
  }

  /// Multiply-accumulate pairs counted as 2 FLOPs each, the convention
  /// GFLOPS numbers in the paper and in AutoTVM logs use.
  std::int64_t flops() const;

  TensorType input_type() const {
    return {Shape{batch, in_channels, height, width}, dtype};
  }
  TensorType weight_type() const {
    return {Shape{out_channels, in_channels / groups, kernel_h, kernel_w},
            dtype};
  }
  TensorType output_type() const {
    return {Shape{batch, out_channels, out_height(), out_width()}, dtype};
  }

  void validate() const;
};

/// Fully-connected layer: [batch, in_features] x [out_features, in_features].
struct DenseWorkload {
  std::int64_t batch = 1;
  std::int64_t in_features = 0;
  std::int64_t out_features = 0;
  DType dtype = DType::kFloat32;

  std::int64_t flops() const { return 2 * batch * in_features * out_features; }

  TensorType input_type() const { return {Shape{batch, in_features}, dtype}; }
  TensorType weight_type() const {
    return {Shape{out_features, in_features}, dtype};
  }
  TensorType output_type() const {
    return {Shape{batch, out_features}, dtype};
  }

  void validate() const;
};

// 64-bit, as wide as the int64 fields after it, so no padding follows
// Workload's tag. gtest names each value-parameterised case after a byte
// dump of its Workload parameter; padding there held leftover stack bytes,
// which made those case names differ from one test-binary run to the next.
enum class WorkloadKind : std::uint64_t {
  kConv2d,
  kDepthwiseConv2d,
  kDense,
};

std::string workload_kind_name(WorkloadKind k);

/// Tagged union of the tunable workloads. Equality and the canonical key
/// define task identity for deduplication and transfer learning.
class Workload {
 public:
  /// Builds a conv2d (or depthwise conv2d, decided by the groups field)
  /// workload; validates parameters.
  static Workload conv2d(Conv2dWorkload w);
  static Workload dense(DenseWorkload w);

  WorkloadKind kind() const { return kind_; }
  bool is_conv() const {
    return kind_ == WorkloadKind::kConv2d ||
           kind_ == WorkloadKind::kDepthwiseConv2d;
  }

  const Conv2dWorkload& as_conv2d() const;
  const DenseWorkload& as_dense() const;

  /// Total floating-point operations of one execution.
  std::int64_t flops() const;

  /// Canonical string key, e.g.
  /// "conv2d/n1_c3_hw224x224_o64_k3x3_s1x1_p1x1_g1_float32".
  std::string key() const;

  /// Short human label, e.g. "conv2d 3x224x224 -> 64, k3s1".
  std::string brief() const;

  bool operator==(const Workload& other) const { return key() == other.key(); }

 private:
  Workload() = default;

  WorkloadKind kind_ = WorkloadKind::kConv2d;
  Conv2dWorkload conv_;
  DenseWorkload dense_;
};

}  // namespace aal
