// Unit tests for the target registry: stable names, did-you-mean
// resolution errors, GpuSpec round-trips and per-kind dispatch of the
// TargetSpec convenience accessors.
#include "hwsim/target.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/common.hpp"

namespace aal {
namespace {

TEST(Target, RegistryListsEveryTargetInStableOrder) {
  const std::vector<std::string> expected = {
      "gpu-pascal", "gpu-volta", "gpu-embedded", "cpu-simd", "fpga-systolic"};
  EXPECT_EQ(target_names(), expected);
}

TEST(Target, MakeTargetResolvesEveryRegisteredName) {
  for (const std::string& name : target_names()) {
    const TargetSpec t = make_target(name);
    EXPECT_EQ(t.name, name);
    EXPECT_FALSE(t.device_name.empty()) << name;
    EXPECT_FALSE(target_description(name).empty()) << name;
    EXPECT_GT(t.peak_gflops(), 0.0) << name;
    EXPECT_GT(t.dram_bw_gbps(), 0.0) << name;
    EXPECT_GE(t.launch_overhead_us(), 0.0) << name;
    // The registry name prefix encodes the backend kind.
    const std::string kind = target_kind_name(t.kind);
    EXPECT_EQ(name.substr(0, kind.size()), kind) << name;
  }
}

TEST(Target, UnknownNameThrowsWithDidYouMeanAndValidList) {
  try {
    make_target("cpu-smid");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cpu-smid"), std::string::npos);
    EXPECT_NE(msg.find("did you mean 'cpu-simd'"), std::string::npos);
    for (const std::string& name : target_names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << name;
    }
  }
}

TEST(Target, WildlyWrongNameListsTargetsWithoutSuggestion) {
  try {
    make_target("zzzzzzzzzzzz");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.find("did you mean"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid targets"), std::string::npos);
  }
}

TEST(Target, FromGpuMapsKnownSpecsToRegistryNames) {
  EXPECT_EQ(TargetSpec::from_gpu(GpuSpec::gtx1080ti()).name, "gpu-pascal");
  EXPECT_EQ(TargetSpec::from_gpu(GpuSpec::v100()).name, "gpu-volta");
  EXPECT_EQ(TargetSpec::from_gpu(GpuSpec::small_embedded()).name,
            "gpu-embedded");
  GpuSpec custom = GpuSpec::gtx1080ti();
  custom.name = "my-weird-gpu";
  EXPECT_TRUE(
      TargetSpec::from_gpu(custom).name.starts_with("gpu-custom-"))
      << TargetSpec::from_gpu(custom).name;
}

TEST(Target, KnownDeviceLabelWithChangedNumbersIsCustom) {
  // A registered device label alone does not make a registered target: a
  // "GeForce GTX 1080 Ti" with fewer SMs and doubled DRAM bandwidth is
  // another machine, and must not share gpu-pascal's store keys and
  // transfer priors.
  GpuSpec modified = GpuSpec::gtx1080ti();
  modified.num_sms = 20;
  modified.dram_bw_gbps *= 2;
  const TargetSpec t = TargetSpec::from_gpu(modified);
  EXPECT_TRUE(t.name.starts_with("gpu-custom-")) << t.name;
  EXPECT_EQ(t.device_name, "GeForce GTX 1080 Ti");
  EXPECT_EQ(t.gpu.num_sms, 20);
  // One changed field is enough.
  GpuSpec slower_launch = GpuSpec::v100();
  slower_launch.kernel_launch_overhead_us += 1.0;
  EXPECT_NE(TargetSpec::from_gpu(slower_launch).name, "gpu-volta");
}

TEST(Target, DistinctCustomGpusGetDistinctFingerprintedNames) {
  // Regression: unknown specs used to collapse onto one shared
  // "gpu-custom" name, so two unrelated machines wrote records under the
  // same "@gpu-custom" task keys and cross-contaminated each other's
  // warm starts. The name must now be a pure, stable function of the spec
  // that separates distinct machines.
  GpuSpec a = GpuSpec::gtx1080ti();
  a.name = "machine-a";
  GpuSpec b = a;
  b.name = "machine-b";                  // same numbers, different device
  GpuSpec c = a;
  c.dram_bw_gbps = a.dram_bw_gbps * 2;   // same device, different numbers
  const std::string name_a = TargetSpec::from_gpu(a).name;
  EXPECT_NE(name_a, TargetSpec::from_gpu(b).name);
  EXPECT_NE(name_a, TargetSpec::from_gpu(c).name);
  // Deterministic: the same spec always maps to the same name (the store
  // key namespace must be stable across processes and runs).
  EXPECT_EQ(name_a, TargetSpec::from_gpu(a).name);
}

TEST(Target, DefaultTargetMatchesHistoricalPascalSpec) {
  // The compatibility contract: the registry's gpu-pascal and the from_gpu
  // wrapping of GpuSpec::gtx1080ti() describe the same machine, so the
  // default pipeline's behavior is unchanged by the target layer.
  const TargetSpec reg = make_target("gpu-pascal");
  const TargetSpec wrapped = TargetSpec::from_gpu(GpuSpec::gtx1080ti());
  EXPECT_EQ(reg.kind, TargetKind::kGpu);
  EXPECT_EQ(reg.name, wrapped.name);
  EXPECT_EQ(reg.device_name, wrapped.device_name);
  EXPECT_DOUBLE_EQ(reg.peak_gflops(), wrapped.peak_gflops());
  EXPECT_DOUBLE_EQ(reg.gpu.dram_bw_gbps, wrapped.gpu.dram_bw_gbps);
  EXPECT_EQ(reg.gpu.shared_mem_per_block, wrapped.gpu.shared_mem_per_block);
}

TEST(Target, AccessorsDispatchOnKind) {
  const TargetSpec cpu = make_target("cpu-simd");
  EXPECT_EQ(cpu.kind, TargetKind::kCpu);
  EXPECT_DOUBLE_EQ(cpu.peak_gflops(), cpu.cpu.peak_gflops());
  EXPECT_DOUBLE_EQ(cpu.dram_bw_gbps(), cpu.cpu.dram_bw_gbps);
  EXPECT_DOUBLE_EQ(cpu.launch_overhead_us(),
                   cpu.cpu.parallel_launch_overhead_us);

  const TargetSpec fpga = make_target("fpga-systolic");
  EXPECT_EQ(fpga.kind, TargetKind::kFpga);
  EXPECT_DOUBLE_EQ(fpga.peak_gflops(), fpga.fpga.peak_gflops());
  EXPECT_DOUBLE_EQ(fpga.dram_bw_gbps(), fpga.fpga.dram_bw_gbps);
  EXPECT_DOUBLE_EQ(fpga.launch_overhead_us(), fpga.fpga.launch_overhead_us);
}

TEST(Target, KindNamesAreStable) {
  EXPECT_STREQ(target_kind_name(TargetKind::kGpu), "gpu");
  EXPECT_STREQ(target_kind_name(TargetKind::kCpu), "cpu");
  EXPECT_STREQ(target_kind_name(TargetKind::kFpga), "fpga");
}

}  // namespace
}  // namespace aal
