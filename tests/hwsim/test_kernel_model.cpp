#include "hwsim/kernel_model.hpp"

#include <gtest/gtest.h>

#include "support/stats.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

TEST(GpuSpec, Gtx1080TiNumbers) {
  const GpuSpec s = GpuSpec::gtx1080ti();
  EXPECT_EQ(s.num_sms, 28);
  EXPECT_EQ(s.total_cores(), 3584);
  // 3584 cores * 2 flop * 1.582 GHz ~= 11.34 TFLOPS.
  EXPECT_NEAR(s.peak_gflops(), 11340.0, 50.0);
  EXPECT_EQ(s.shared_mem_per_block, 48 * 1024);
}

TEST(BlocksPerSm, RespectsEveryLimit) {
  const GpuSpec s = GpuSpec::gtx1080ti();
  // Unconstrained small block: capped by max_blocks_per_sm.
  EXPECT_EQ(blocks_per_sm(s, 32, 0, 16), 32);
  // Thread-limited: 2048 / 512 = 4.
  EXPECT_EQ(blocks_per_sm(s, 512, 0, 16), 4);
  // Shared-memory-limited: 96KB / 40KB = 2.
  EXPECT_EQ(blocks_per_sm(s, 64, 40 * 1024, 16), 2);
  // Register-limited: 65536 / (128 * 128) = 4.
  EXPECT_EQ(blocks_per_sm(s, 128, 0, 128), 4);
}

TEST(BlocksPerSm, ImpossibleLaunchesReturnZero) {
  const GpuSpec s = GpuSpec::gtx1080ti();
  EXPECT_EQ(blocks_per_sm(s, 2048, 0, 16), 0);          // too many threads
  EXPECT_EQ(blocks_per_sm(s, 0, 0, 16), 0);             // no threads
  EXPECT_EQ(blocks_per_sm(s, 64, 49 * 1024, 16), 0);    // smem over block cap
  EXPECT_EQ(blocks_per_sm(s, 1024, 0, 255), 0);         // register file blown
}

class ConvModelTest : public ::testing::Test {
 protected:
  Workload workload_ = testing::small_conv_workload();
  GpuSpec spec_ = GpuSpec::gtx1080ti();
  KernelModel model_{workload_, spec_};
  ConfigSpace space_ = testing::cuda_space(workload_);
};

TEST_F(ConvModelTest, ValidProfilesAreWellFormed) {
  Rng rng(3);
  int valid = 0;
  for (int i = 0; i < 300; ++i) {
    const Config c = space_.sample(rng);
    const KernelProfile p = model_.profile(space_, c);
    if (!p.valid) continue;
    ++valid;
    EXPECT_GT(p.base_time_us, 0.0);
    EXPECT_GT(p.noise_sigma, 0.0);
    EXPECT_LE(p.noise_sigma, 0.2);
    EXPECT_GT(p.occupancy, 0.0);
    EXPECT_LE(p.occupancy, 1.0);
    EXPECT_GE(p.threads_per_block, 1);
    EXPECT_LE(p.threads_per_block, spec_.max_threads_per_block);
    EXPECT_LE(p.smem_bytes_per_block, spec_.shared_mem_per_block);
    // GFLOPS can never exceed the machine peak.
    EXPECT_LE(p.gflops(workload_.flops()), spec_.peak_gflops());
  }
  // A healthy fraction of random configs must be buildable.
  EXPECT_GT(valid, 50);
  EXPECT_LT(valid, 300);  // ... and some must fail, as on real hardware
}

TEST_F(ConvModelTest, ProfileIsDeterministic) {
  Rng rng(5);
  const Config c = space_.sample(rng);
  const KernelProfile a = model_.profile(space_, c);
  const KernelProfile b = model_.profile(space_, c);
  EXPECT_EQ(a.valid, b.valid);
  if (a.valid) {
    EXPECT_DOUBLE_EQ(a.base_time_us, b.base_time_us);
    EXPECT_DOUBLE_EQ(a.noise_sigma, b.noise_sigma);
  }
}

TEST_F(ConvModelTest, OversizedBlockIsInvalid) {
  // Find a config whose threads-per-block exceeds 1024: put everything in
  // the thread slots of tile_y/tile_x.
  Rng rng(7);
  bool found = false;
  for (int i = 0; i < 3000 && !found; ++i) {
    const Config c = space_.sample(rng);
    const ConvSchedule s = decode_conv_schedule(workload_, space_, c);
    if (s.threads_per_block() > 1024) {
      const KernelProfile p = model_.profile(space_, c);
      EXPECT_FALSE(p.valid);
      EXPECT_FALSE(p.error.empty());
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ConvModelTest, InvalidProfileHasZeroGflops) {
  const KernelProfile p = KernelProfile::invalid_config("test");
  EXPECT_DOUBLE_EQ(p.gflops(1000000), 0.0);
}

TEST_F(ConvModelTest, LowOccupancyIsNoisierOnAverage) {
  // Average noise sigma over the low-occupancy quartile must exceed the
  // high-occupancy quartile: fragile launches jitter more.
  Rng rng(9);
  std::vector<std::pair<double, double>> occ_sigma;  // (occupancy, sigma)
  for (int i = 0; i < 2000; ++i) {
    const KernelProfile p = model_.profile(space_, space_.sample(rng));
    if (p.valid) occ_sigma.emplace_back(p.occupancy, p.noise_sigma);
  }
  ASSERT_GT(occ_sigma.size(), 100u);
  std::sort(occ_sigma.begin(), occ_sigma.end());
  const std::size_t q = occ_sigma.size() / 4;
  double low = 0.0, high = 0.0;
  for (std::size_t i = 0; i < q; ++i) {
    low += occ_sigma[i].second;
    high += occ_sigma[occ_sigma.size() - 1 - i].second;
  }
  EXPECT_GT(low / q, high / q);
}

TEST(DenseModelTest, ProfilesBehave) {
  const Workload w = testing::small_dense_workload();
  const GpuSpec spec = GpuSpec::gtx1080ti();
  const KernelModel model(w, spec);
  const ConfigSpace space = testing::cuda_space(w);
  Rng rng(11);
  int valid = 0;
  for (int i = 0; i < 200; ++i) {
    const KernelProfile p = model.profile(space, space.sample(rng));
    if (p.valid) {
      ++valid;
      EXPECT_GT(p.base_time_us, 0.0);
      EXPECT_LE(p.gflops(w.flops()), spec.peak_gflops());
    }
  }
  EXPECT_GT(valid, 20);
}

TEST(DepthwiseModelTest, BandwidthBoundRegime) {
  // Depthwise convolutions have almost no reuse: even the best config found
  // by random search must sit far below machine peak.
  const Workload w = testing::small_depthwise_workload();
  const GpuSpec spec = GpuSpec::gtx1080ti();
  const KernelModel model(w, spec);
  const ConfigSpace space = testing::cuda_space(w);
  Rng rng(13);
  double best = 0.0;
  for (int i = 0; i < 500; ++i) {
    const KernelProfile p = model.profile(space, space.sample(rng));
    if (p.valid) best = std::max(best, p.gflops(w.flops()));
  }
  EXPECT_GT(best, 0.0);
  EXPECT_LT(best, 0.25 * spec.peak_gflops());
}

TEST(AlignmentRidges, Float4AlignedRowsAreFasterInAggregate) {
  // The vectorized-load / swizzle ridges: among valid configs, those whose
  // staged input row is float4-aligned must be faster on average in the
  // memory-bound regime. Use a depthwise workload (bandwidth-bound) so the
  // memory path dominates.
  const Workload w = testing::small_depthwise_workload();
  const GpuSpec spec = GpuSpec::gtx1080ti();
  const KernelModel model(w, spec);
  const ConfigSpace space = testing::cuda_space(w);
  Rng rng(101);
  RunningStats aligned, unaligned;
  for (int i = 0; i < 4000; ++i) {
    const Config c = space.sample(rng);
    const KernelProfile p = model.profile(space, c);
    if (!p.valid) continue;
    const ConvSchedule s = decode_conv_schedule(w, space, c);
    const std::int64_t in_cols =
        (s.tile_x() - 1) * w.as_conv2d().stride_w + s.rxi;
    const double gflops = p.gflops(w.flops());
    // The sweet spot is float4-aligned but NOT a power-of-two pitch (which
    // triggers the bank/partition aliasing penalties) — e.g. pitch 4, 12,
    // 20, 28: vectorized loads without swizzle conflicts.
    if (in_cols % 4 == 0 && in_cols % 16 != 0) {
      aligned.add(gflops);
    } else if (in_cols % 2 == 1) {
      unaligned.add(gflops);
    }
  }
  ASSERT_GT(aligned.count(), 50u);
  ASSERT_GT(unaligned.count(), 50u);
  EXPECT_GT(aligned.mean(), unaligned.mean());
}

TEST(Precision, LowerPrecisionIsFasterInAggregate) {
  // fp16 halves and int8 quarters the memory traffic; int8 also gets 4x
  // dp4a arithmetic on Pascal. On a bandwidth-bound depthwise layer the
  // average valid-config time must drop monotonically with element size.
  Conv2dWorkload conv = testing::small_depthwise_workload().as_conv2d();
  const GpuSpec spec = GpuSpec::gtx1080ti();
  double mean_time[3] = {};
  const DType dtypes[3] = {DType::kFloat32, DType::kFloat16, DType::kInt8};
  for (int d = 0; d < 3; ++d) {
    conv.dtype = dtypes[d];
    const Workload w = Workload::conv2d(conv);
    const KernelModel model(w, spec);
    const ConfigSpace space = testing::cuda_space(w);
    Rng rng(55);  // same stream: same configs compared across dtypes
    RunningStats stats;
    for (int i = 0; i < 1500; ++i) {
      const KernelProfile p = model.profile(space, space.sample(rng));
      if (p.valid) stats.add(p.base_time_us);
    }
    ASSERT_GT(stats.count(), 100u) << dtype_name(dtypes[d]);
    mean_time[d] = stats.mean();
  }
  EXPECT_LT(mean_time[1], mean_time[0]);  // fp16 < fp32
  EXPECT_LT(mean_time[2], mean_time[1]);  // int8 < fp16
}

TEST(Precision, Int8ShrinksSharedMemoryFootprint) {
  Conv2dWorkload conv = testing::small_conv_workload().as_conv2d();
  const GpuSpec spec = GpuSpec::gtx1080ti();
  conv.dtype = DType::kFloat32;
  const Workload w32 = Workload::conv2d(conv);
  conv.dtype = DType::kInt8;
  const Workload w8 = Workload::conv2d(conv);
  const ConfigSpace space = testing::cuda_space(w32);  // same knobs/dims
  const KernelModel m32(w32, spec);
  const KernelModel m8(w8, spec);
  Rng rng(66);
  int compared = 0;
  for (int i = 0; i < 400 && compared < 30; ++i) {
    const Config c = space.sample(rng);
    const KernelProfile p32 = m32.profile(space, c);
    const KernelProfile p8 = m8.profile(space, c);
    if (!p32.valid || !p8.valid) continue;
    EXPECT_EQ(p8.smem_bytes_per_block * 4, p32.smem_bytes_per_block);
    ++compared;
  }
  EXPECT_GE(compared, 30);
}

TEST(KernelModelScaling, V100OutrunsPascalOnBigKernels) {
  const Workload w = testing::small_conv_workload();
  const ConfigSpace space = testing::cuda_space(w);
  const KernelModel pascal(w, GpuSpec::gtx1080ti());
  const KernelModel volta(w, GpuSpec::v100());
  EXPECT_GT(GpuSpec::v100().peak_gflops(), GpuSpec::gtx1080ti().peak_gflops());
  // Aggregate over valid configs: V100 should win on average (more SMs,
  // double the bandwidth), even if tiny kernels are launch-bound on both.
  Rng rng(7);
  double p_total = 0.0, v_total = 0.0;
  int n = 0;
  for (int i = 0; i < 500 && n < 60; ++i) {
    const Config c = space.sample(rng);
    const KernelProfile pp = pascal.profile(space, c);
    const KernelProfile vp = volta.profile(space, c);
    if (pp.valid && vp.valid) {
      p_total += pp.base_time_us;
      v_total += vp.base_time_us;
      ++n;
    }
  }
  ASSERT_GE(n, 60);
  EXPECT_LT(v_total, p_total);
}

TEST(KernelModelScaling, SmallerGpuIsSlower) {
  const Workload w = testing::small_conv_workload();
  const ConfigSpace space = testing::cuda_space(w);
  const KernelModel big(w, GpuSpec::gtx1080ti());
  const KernelModel small(w, GpuSpec::small_embedded());
  Rng rng(17);
  int compared = 0;
  for (int i = 0; i < 300 && compared < 20; ++i) {
    const Config c = space.sample(rng);
    const KernelProfile pb = big.profile(space, c);
    const KernelProfile ps = small.profile(space, c);
    if (pb.valid && ps.valid) {
      EXPECT_LT(pb.base_time_us, ps.base_time_us);
      ++compared;
    }
  }
  EXPECT_GE(compared, 20);
}

}  // namespace
}  // namespace aal
