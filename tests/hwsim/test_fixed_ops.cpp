#include "hwsim/fixed_ops.hpp"

#include <gtest/gtest.h>

namespace aal {
namespace {

TensorType nchw(std::int64_t c, std::int64_t h, std::int64_t w) {
  return {Shape{1, c, h, w}, DType::kFloat32};
}

TEST(FixedOps, ViewsHaveZeroLatency) {
  const TargetSpec spec = make_target("gpu-pascal");
  for (OpType t : {OpType::kInput, OpType::kFlatten, OpType::kDropout}) {
    Op op;
    op.type = t;
    EXPECT_DOUBLE_EQ(fixed_op_latency_us(op, {nchw(64, 56, 56)}, spec), 0.0);
  }
}

TEST(FixedOps, KernelsIncludeLaunchOverhead) {
  const TargetSpec spec = make_target("gpu-pascal");
  Op op;
  op.type = OpType::kRelu;
  const double t = fixed_op_latency_us(op, {nchw(1, 1, 1)}, spec);
  EXPECT_GT(t, 0.5 * spec.launch_overhead_us() * 0.5);
}

TEST(FixedOps, LatencyGrowsWithTensorSize) {
  const TargetSpec spec = make_target("gpu-pascal");
  Op op;
  op.type = OpType::kRelu;
  const double small = fixed_op_latency_us(op, {nchw(16, 28, 28)}, spec);
  const double large = fixed_op_latency_us(op, {nchw(64, 112, 112)}, spec);
  EXPECT_GT(large, small);
}

TEST(FixedOps, SoftmaxCostsMoreThanRelu) {
  const TargetSpec spec = make_target("gpu-pascal");
  Op relu;
  relu.type = OpType::kRelu;
  Op softmax;
  softmax.type = OpType::kSoftmax;
  const auto input = std::vector<TensorType>{nchw(64, 56, 56)};
  EXPECT_GT(fixed_op_latency_us(softmax, input, spec),
            fixed_op_latency_us(relu, input, spec));
}

TEST(FixedOps, PoolChargesWindowOverhead) {
  const TargetSpec spec = make_target("gpu-pascal");
  Op pool;
  pool.type = OpType::kMaxPool2d;
  pool.pool = {3, 3, 2, 2, 0, 0, false};
  Op relu;
  relu.type = OpType::kRelu;
  const auto input = std::vector<TensorType>{nchw(64, 112, 112)};
  EXPECT_GT(fixed_op_latency_us(pool, input, spec),
            0.5 * fixed_op_latency_us(relu, input, spec));
}

TEST(FixedOps, SlowerGpuTakesLonger) {
  Op op;
  op.type = OpType::kLRN;
  const auto input = std::vector<TensorType>{nchw(64, 56, 56)};
  EXPECT_GT(fixed_op_latency_us(op, input, make_target("gpu-embedded")),
            fixed_op_latency_us(op, input, make_target("gpu-pascal")));
}

TEST(FixedOps, NoiseSigmaIsSmallPositive) {
  EXPECT_GT(fixed_op_noise_sigma(), 0.0);
  EXPECT_LT(fixed_op_noise_sigma(), 0.05);
}

}  // namespace
}  // namespace aal
