#include "hwsim/target.hpp"

#include <cstdint>
#include <cstdio>
#include <string>

#include "support/common.hpp"
#include "support/string_util.hpp"

namespace aal {

namespace {

struct RegistryEntry {
  const char* name;
  const char* description;
  TargetSpec (*make)();
};

/// FNV-1a over the spec's identity — device name plus every performance
/// field. Two distinct custom machines must never share a target name:
/// the name qualifies record-store task keys, and a shared "gpu-custom"
/// would leak one machine's tuning records into the other's warm starts.
std::uint64_t gpu_spec_fingerprint(const GpuSpec& spec) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix_bytes = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  const auto mix_int = [&](std::int64_t v) { mix_bytes(&v, sizeof(v)); };
  const auto mix_double = [&](double v) { mix_bytes(&v, sizeof(v)); };
  mix_bytes(spec.name, std::char_traits<char>::length(spec.name));
  mix_int(spec.num_sms);
  mix_int(spec.cores_per_sm);
  mix_double(spec.clock_ghz);
  mix_int(spec.warp_size);
  mix_int(spec.max_threads_per_block);
  mix_int(spec.max_threads_per_sm);
  mix_int(spec.max_blocks_per_sm);
  mix_int(spec.registers_per_sm);
  mix_int(spec.max_registers_per_thread);
  mix_int(spec.shared_mem_per_block);
  mix_int(spec.shared_mem_per_sm);
  mix_double(spec.dram_bw_gbps);
  mix_int(spec.l2_bytes);
  mix_double(spec.l2_bw_multiplier);
  mix_int(spec.smem_bytes_per_cycle);
  mix_double(spec.fp16_rate);
  mix_double(spec.int8_rate);
  mix_double(spec.kernel_launch_overhead_us);
  return h;
}

TargetSpec make_gpu_target(const char* name, GpuSpec spec) {
  TargetSpec t;
  t.kind = TargetKind::kGpu;
  t.name = name;
  t.device_name = spec.name;
  t.gpu = spec;
  return t;
}

TargetSpec make_gpu_pascal() {
  return make_gpu_target("gpu-pascal", GpuSpec::gtx1080ti());
}
TargetSpec make_gpu_volta() {
  return make_gpu_target("gpu-volta", GpuSpec::v100());
}
TargetSpec make_gpu_embedded() {
  return make_gpu_target("gpu-embedded", GpuSpec::small_embedded());
}

TargetSpec make_cpu_simd() {
  TargetSpec t;
  t.kind = TargetKind::kCpu;
  t.name = "cpu-simd";
  t.cpu = CpuSpec::desktop_simd();
  t.device_name = t.cpu.name;
  return t;
}

TargetSpec make_fpga_systolic() {
  TargetSpec t;
  t.kind = TargetKind::kFpga;
  t.name = "fpga-systolic";
  t.fpga = FpgaSpec::midrange_systolic();
  t.device_name = t.fpga.name;
  return t;
}

constexpr RegistryEntry kRegistry[] = {
    {"gpu-pascal",
     "Pascal-class CUDA GPU (GTX 1080 Ti), the paper's platform",
     &make_gpu_pascal},
    {"gpu-volta", "Volta-class server GPU (Tesla V100)", &make_gpu_volta},
    {"gpu-embedded", "small embedded-class GPU (Jetson-like)",
     &make_gpu_embedded},
    {"cpu-simd", "16-core AVX2 CPU with a 3-level cache hierarchy",
     &make_cpu_simd},
    {"fpga-systolic",
     "16x16 systolic-array FPGA with on-chip local buffers (AutoSA-style)",
     &make_fpga_systolic},
};

}  // namespace

const char* target_kind_name(TargetKind kind) {
  switch (kind) {
    case TargetKind::kGpu: return "gpu";
    case TargetKind::kCpu: return "cpu";
    case TargetKind::kFpga: return "fpga";
  }
  return "unknown";
}

CpuSpec CpuSpec::desktop_simd() {
  CpuSpec s;
  s.name = "desktop-16c-avx2";
  return s;  // defaults describe the desktop part
}

FpgaSpec FpgaSpec::midrange_systolic() {
  FpgaSpec s;
  s.name = "midrange-systolic-16x16";
  return s;  // defaults describe the mid-range array
}

double TargetSpec::peak_gflops() const {
  switch (kind) {
    case TargetKind::kGpu: return gpu.peak_gflops();
    case TargetKind::kCpu: return cpu.peak_gflops();
    case TargetKind::kFpga: return fpga.peak_gflops();
  }
  return 0.0;
}

double TargetSpec::dram_bw_gbps() const {
  switch (kind) {
    case TargetKind::kGpu: return gpu.dram_bw_gbps;
    case TargetKind::kCpu: return cpu.dram_bw_gbps;
    case TargetKind::kFpga: return fpga.dram_bw_gbps;
  }
  return 0.0;
}

double TargetSpec::launch_overhead_us() const {
  switch (kind) {
    case TargetKind::kGpu: return gpu.kernel_launch_overhead_us;
    case TargetKind::kCpu: return cpu.parallel_launch_overhead_us;
    case TargetKind::kFpga: return fpga.launch_overhead_us;
  }
  return 0.0;
}

TargetSpec TargetSpec::from_gpu(const GpuSpec& spec) {
  TargetSpec t;
  t.kind = TargetKind::kGpu;
  t.gpu = spec;
  t.device_name = spec.name;
  const std::string device = spec.name;
  if (device == "GeForce GTX 1080 Ti") {
    t.name = "gpu-pascal";
  } else if (device == "Tesla V100") {
    t.name = "gpu-volta";
  } else if (device == "small-embedded") {
    t.name = "gpu-embedded";
  } else {
    // Fingerprint-qualified: distinct custom machines get distinct names
    // (and therefore distinct "@target"-qualified store keys). The bare
    // "gpu-custom" of earlier releases made every unknown GPU share one
    // key namespace, leaking records — and transfer priors — across
    // unrelated machines.
    char suffix[20];
    std::snprintf(suffix, sizeof(suffix), "%08llx",
                  static_cast<unsigned long long>(
                      gpu_spec_fingerprint(spec) & 0xFFFFFFFFULL));
    t.name = std::string("gpu-custom-") + suffix;
  }
  return t;
}

const std::vector<std::string>& target_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const RegistryEntry& e : kRegistry) out.emplace_back(e.name);
    return out;
  }();
  return names;
}

TargetSpec make_target(const std::string& name) {
  for (const RegistryEntry& e : kRegistry) {
    if (name == e.name) return e.make();
  }
  // Unknown: build the did-you-mean error from the closest registry name.
  const std::vector<std::string>& names = target_names();
  std::string message = "unknown target '" + name + "'";
  if (const auto closest = closest_match(name, names)) {
    message += " (did you mean '" + *closest + "'?)";
  }
  message += "; valid targets: " + join(names, ", ");
  throw InvalidArgument(message);
}

std::string target_description(const std::string& name) {
  for (const RegistryEntry& e : kRegistry) {
    if (name == e.name) return e.description;
  }
  throw InvalidArgument("unknown target '" + name + "'");
}

}  // namespace aal
