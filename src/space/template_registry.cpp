#include "space/template_registry.hpp"

#include <algorithm>

#include "support/common.hpp"
#include "support/math_util.hpp"

namespace aal {

namespace {

const std::vector<std::int64_t>& split_entity(const ConfigSpace& space,
                                              const Config& config,
                                              std::size_t knob_idx) {
  const SplitKnob& k = space.knob(knob_idx).as_split();
  return k.entities[static_cast<std::size_t>(config.choices[knob_idx])];
}

std::int64_t option_value(const ConfigSpace& space, const Config& config,
                          std::size_t knob_idx) {
  const OptionKnob& k = space.knob(knob_idx).as_option();
  return k.values[static_cast<std::size_t>(config.choices[knob_idx])];
}

// ---------------------------------------------------------------------------
// "cuda" — the original CUDA-shaped template. Builds the exact knob layouts
// of the pre-registry space builder, so spaces, flat indices and feature
// encodings are byte-identical to the pre-registry stack on every target.
// ---------------------------------------------------------------------------

class CudaTemplate final : public ScheduleTemplate {
 public:
  const std::string& name() const override {
    static const std::string n = kDefaultTemplateName;
    return n;
  }

  bool serves(TargetKind) const override { return true; }

  ConfigSpace build(const Workload& workload,
                    const TargetSpec& /*target*/) const override {
    switch (workload.kind()) {
      case WorkloadKind::kConv2d:
        return build_conv2d(workload.as_conv2d());
      case WorkloadKind::kDepthwiseConv2d:
        return build_depthwise(workload.as_conv2d());
      case WorkloadKind::kDense:
        return build_dense(workload.as_dense());
    }
    throw InternalError("unhandled workload kind");
  }

  ConvSchedule decode_conv(const Workload& workload, const ConfigSpace& space,
                           const Config& config) const override {
    return decode_conv_schedule(workload, space, config);
  }

  DenseSchedule decode_dense(const Workload& workload, const ConfigSpace& space,
                             const Config& config) const override {
    return decode_dense_schedule(workload, space, config);
  }

 private:
  static ConfigSpace build_conv2d(const Conv2dWorkload& w) {
    std::vector<Knob> knobs;
    knobs.push_back(Knob::split("tile_f", w.out_channels, 4));
    knobs.push_back(Knob::split("tile_y", w.out_height(), 4));
    knobs.push_back(Knob::split("tile_x", w.out_width(), 4));
    knobs.push_back(Knob::split("tile_rc", w.in_channels / w.groups, 2));
    knobs.push_back(Knob::split("tile_ry", w.kernel_h, 2));
    knobs.push_back(Knob::split("tile_rx", w.kernel_w, 2));
    knobs.push_back(Knob::option("auto_unroll_max_step", {0, 512, 1500}));
    knobs.push_back(Knob::option("unroll_explicit", {0, 1}));
    return ConfigSpace(std::move(knobs));
  }

  static ConfigSpace build_depthwise(const Conv2dWorkload& w) {
    std::vector<Knob> knobs;
    knobs.push_back(Knob::split("tile_c", w.out_channels, 4));
    knobs.push_back(Knob::split("tile_y", w.out_height(), 4));
    knobs.push_back(Knob::split("tile_x", w.out_width(), 4));
    knobs.push_back(Knob::split("tile_ry", w.kernel_h, 2));
    knobs.push_back(Knob::split("tile_rx", w.kernel_w, 2));
    knobs.push_back(Knob::option("auto_unroll_max_step", {0, 256, 1500}));
    knobs.push_back(Knob::option("unroll_explicit", {0, 1}));
    return ConfigSpace(std::move(knobs));
  }

  static ConfigSpace build_dense(const DenseWorkload& w) {
    std::vector<Knob> knobs;
    knobs.push_back(Knob::split("tile_y", w.out_features, 4));
    knobs.push_back(Knob::split("tile_k", w.in_features, 2));
    knobs.push_back(Knob::option("auto_unroll_max_step", {0, 512, 1500}));
    knobs.push_back(Knob::option("unroll_explicit", {0, 1}));
    return ConfigSpace(std::move(knobs));
  }
};

// ---------------------------------------------------------------------------
// "cpu-native" — cache-tile / vectorize / parallel-outer knobs sized from
// CpuSpec, shaped like a TVM x86 schedule rather than a CUDA one:
//   * spatial axes split 3-way (parallel-outer, serial-mid, inner) — there is
//     no vthread on a CPU, so the CUDA 4-way split's vthread slot is gone;
//   * the inner extents are capped so the accumulator tile fits the register
//     budget the CPU model spills past (register_tiles <= 4x vector
//     registers) and the innermost x extent matches the SIMD width;
//   * parallel-outer factors are capped at the core count so the task grain
//     stays inside the model's tasks-per-core bound;
//   * rci is capped at the SIMD width to bound the staged working set.
// With the registry's desktop CpuSpec every conv entity satisfies the CPU
// model's register and parallel-grain constraints by construction and the
// working-set bound holds for all layer shapes in the model zoo; the
// attached SpaceConstraints mop up degenerate shapes (see the fallback in
// Knob::split_capped).
// ---------------------------------------------------------------------------

class CpuNativeTemplate final : public ScheduleTemplate {
 public:
  const std::string& name() const override {
    static const std::string n = "cpu-native";
    return n;
  }

  bool serves(TargetKind kind) const override {
    return kind == TargetKind::kCpu;
  }

  ConfigSpace build(const Workload& workload,
                    const TargetSpec& target) const override {
    AAL_CHECK(target.kind == TargetKind::kCpu,
              "cpu-native template requires a CPU target, got '" << target.name
                                                                 << "'");
    const CpuSpec& spec = target.cpu;
    switch (workload.kind()) {
      case WorkloadKind::kConv2d:
      case WorkloadKind::kDepthwiseConv2d:
        return build_conv(workload.as_conv2d(), spec,
                          workload.kind() == WorkloadKind::kDepthwiseConv2d);
      case WorkloadKind::kDense:
        return build_dense(workload.as_dense(), spec);
    }
    throw InternalError("unhandled workload kind");
  }

  ConvSchedule decode_conv(const Workload& workload, const ConfigSpace& space,
                           const Config& config) const override {
    AAL_CHECK(workload.is_conv(), "decode_conv on non-conv workload");
    ConvSchedule s;
    const bool depthwise = workload.kind() == WorkloadKind::kDepthwiseConv2d;
    const auto& f = split_entity(space, config, 0);
    s.bf = f[0]; s.tf = f[1]; s.fi = f[2];  // vf stays 1: no vthread on CPU
    const auto& y = split_entity(space, config, 1);
    s.by = y[0]; s.ty = y[1]; s.yi = y[2];
    const auto& x = split_entity(space, config, 2);
    s.bx = x[0]; s.tx = x[1]; s.xi = x[2];
    std::size_t idx = 3;
    if (!depthwise) {
      const auto& rc = split_entity(space, config, idx++);
      s.rco = rc[0];
      s.rci = rc[1];
    }
    const auto& ry = split_entity(space, config, idx++);
    s.ryo = ry[0]; s.ryi = ry[1];
    const auto& rx = split_entity(space, config, idx++);
    s.rxo = rx[0]; s.rxi = rx[1];
    s.auto_unroll_max_step = option_value(space, config, idx++);
    s.unroll_explicit = option_value(space, config, idx++) != 0;
    AAL_ASSERT(idx == space.num_knobs(),
               "cpu-native template knob count mismatch");
    return s;
  }

  DenseSchedule decode_dense(const Workload& workload, const ConfigSpace& space,
                             const Config& config) const override {
    // Same 4-way y / 2-way k layout as the CUDA dense template (the vthread
    // slot maps to the CPU model's register-blocking factor vo), only the
    // factor caps differ — the shared decoder applies.
    return decode_dense_schedule(workload, space, config);
  }

 private:
  static ConfigSpace build_conv(const Conv2dWorkload& w, const CpuSpec& spec,
                                bool depthwise) {
    const std::int64_t simd = spec.simd_width;
    const std::int64_t cores = spec.cores;
    // Accumulator budget before the model's spill cliff: 4x the
    // architectural vector registers (cpu_model's kRegisterTileSlack).
    const std::int64_t reg_budget = 4LL * spec.vector_registers;
    const std::int64_t cap_fi = 2 * simd;
    const std::int64_t cap_yi = std::max<std::int64_t>(1, reg_budget / cap_fi);
    std::vector<Knob> knobs;
    knobs.push_back(Knob::split_capped(depthwise ? "tile_c" : "tile_f",
                                       w.out_channels, 3,
                                       {cores, 8, cap_fi}));
    knobs.push_back(
        Knob::split_capped("tile_y", w.out_height(), 3, {cores, 8, cap_yi}));
    knobs.push_back(
        Knob::split_capped("tile_x", w.out_width(), 3, {cores, 8, simd}));
    if (!depthwise) {
      knobs.push_back(Knob::split_capped("tile_rc", w.in_channels / w.groups,
                                         2, {0, simd}));
    }
    knobs.push_back(Knob::split("tile_ry", w.kernel_h, 2));
    knobs.push_back(Knob::split("tile_rx", w.kernel_w, 2));
    knobs.push_back(Knob::option("auto_unroll_max_step", {0, 64, 512}));
    knobs.push_back(Knob::option("unroll_explicit", {0, 1}));
    return ConfigSpace(std::move(knobs));
  }

  static ConfigSpace build_dense(const DenseWorkload& w, const CpuSpec& spec) {
    const std::int64_t simd = spec.simd_width;
    // vo * ceil(oi / simd) must stay under the register budget; capping
    // vo at 8 and oi at 8*simd pins the product at exactly the budget for
    // the desktop spec (8 * 8 = 64 = 4 * 16 registers).
    std::vector<Knob> knobs;
    knobs.push_back(
        Knob::split_capped("tile_y", w.out_features, 4, {0, 8, 16, 8 * simd}));
    knobs.push_back(
        Knob::split_capped("tile_k", w.in_features, 2, {0, 2 * simd}));
    knobs.push_back(Knob::option("auto_unroll_max_step", {0, 64, 512}));
    knobs.push_back(Knob::option("unroll_explicit", {0, 1}));
    return ConfigSpace(std::move(knobs));
  }
};

// ---------------------------------------------------------------------------
// "systolic" — PE-array tiling / dataflow / buffer-depth knobs sized from
// FpgaSpec, in the shape of an AutoSA mapping:
//   * tile_f's thread slot is the PE-row dimension (capped at pe_rows) and
//     its inner slot the per-PE SIMD vector (capped at simd_lanes), so
//     spatial_pes <= pe_rows * pe_cols and simd <= simd_lanes hold by
//     construction;
//   * tile_y's thread slot is the PE-column dimension (capped at pe_cols);
//   * the vthread slot on f doubles as the output-replication factor and is
//     capped at 2 to keep replicated output tiles inside the local buffer;
//   * x is a 2-way (invocation, inner) split and the reduction caps bound
//     the staged input/weight tiles, keeping the worst-case buffer
//     footprint well under local_buffer_bytes;
//   * no unroll knobs — the pipelined array has no unroll analogue, so the
//     decoded schedules carry auto_unroll_max_step = 0.
// With the registry's mid-range FpgaSpec every entity satisfies all four
// FPGA constraints for the model-zoo layer shapes, dropping the sampled
// infeasible rate from ~66% (CUDA-shaped space) to ~0%.
// ---------------------------------------------------------------------------

class SystolicTemplate final : public ScheduleTemplate {
 public:
  const std::string& name() const override {
    static const std::string n = "systolic";
    return n;
  }

  bool serves(TargetKind kind) const override {
    return kind == TargetKind::kFpga;
  }

  ConfigSpace build(const Workload& workload,
                    const TargetSpec& target) const override {
    AAL_CHECK(target.kind == TargetKind::kFpga,
              "systolic template requires an FPGA target, got '" << target.name
                                                                 << "'");
    const FpgaSpec& spec = target.fpga;
    switch (workload.kind()) {
      case WorkloadKind::kConv2d:
      case WorkloadKind::kDepthwiseConv2d:
        return build_conv(workload.as_conv2d(), spec,
                          workload.kind() == WorkloadKind::kDepthwiseConv2d);
      case WorkloadKind::kDense:
        return build_dense(workload.as_dense(), spec);
    }
    throw InternalError("unhandled workload kind");
  }

  ConvSchedule decode_conv(const Workload& workload, const ConfigSpace& space,
                           const Config& config) const override {
    AAL_CHECK(workload.is_conv(), "decode_conv on non-conv workload");
    ConvSchedule s;
    const bool depthwise = workload.kind() == WorkloadKind::kDepthwiseConv2d;
    const auto& f = split_entity(space, config, 0);
    s.bf = f[0]; s.vf = f[1]; s.tf = f[2]; s.fi = f[3];
    const auto& y = split_entity(space, config, 1);
    s.by = y[0]; s.ty = y[1]; s.yi = y[2];  // vy stays 1
    const auto& x = split_entity(space, config, 2);
    s.bx = x[0]; s.xi = x[1];  // vx, tx stay 1: columns stream through PEs
    std::size_t idx = 3;
    if (!depthwise) {
      const auto& rc = split_entity(space, config, idx++);
      s.rco = rc[0];
      s.rci = rc[1];
    }
    const auto& ry = split_entity(space, config, idx++);
    s.ryo = ry[0]; s.ryi = ry[1];
    const auto& rx = split_entity(space, config, idx++);
    s.rxo = rx[0]; s.rxi = rx[1];
    AAL_ASSERT(idx == space.num_knobs(),
               "systolic template knob count mismatch");
    return s;
  }

  DenseSchedule decode_dense(const Workload& workload, const ConfigSpace& space,
                             const Config& config) const override {
    AAL_CHECK(workload.kind() == WorkloadKind::kDense,
              "decode_dense on non-dense workload");
    DenseSchedule s;
    const auto& y = split_entity(space, config, 0);
    s.bo = y[0]; s.vo = y[1]; s.to = y[2]; s.oi = y[3];
    const auto& k = split_entity(space, config, 1);
    s.ko = k[0]; s.ki = k[1];
    AAL_ASSERT(space.num_knobs() == 2,
               "systolic dense template knob count mismatch");
    return s;
  }

 private:
  static ConfigSpace build_conv(const Conv2dWorkload& w, const FpgaSpec& spec,
                                bool depthwise) {
    const std::int64_t rows = spec.pe_rows;
    const std::int64_t cols = spec.pe_cols;
    const std::int64_t lanes = spec.simd_lanes;
    std::vector<Knob> knobs;
    knobs.push_back(Knob::split_capped(depthwise ? "tile_c" : "tile_f",
                                       w.out_channels, 4,
                                       {0, 2, rows, lanes}));
    knobs.push_back(
        Knob::split_capped("tile_y", w.out_height(), 3, {0, cols, 4}));
    knobs.push_back(Knob::split_capped("tile_x", w.out_width(), 2, {0, 8}));
    if (!depthwise) {
      knobs.push_back(
          Knob::split_capped("tile_rc", w.in_channels / w.groups, 2, {0, 4}));
    }
    knobs.push_back(Knob::split("tile_ry", w.kernel_h, 2));
    knobs.push_back(Knob::split("tile_rx", w.kernel_w, 2));
    return ConfigSpace(std::move(knobs));
  }

  static ConfigSpace build_dense(const DenseWorkload& w, const FpgaSpec& spec) {
    const std::int64_t pes = static_cast<std::int64_t>(spec.pe_rows) *
                             spec.pe_cols;
    std::vector<Knob> knobs;
    knobs.push_back(Knob::split_capped("tile_y", w.out_features, 4,
                                       {0, 2, pes, spec.simd_lanes}));
    knobs.push_back(Knob::split_capped("tile_k", w.in_features, 2, {0, 8}));
    return ConfigSpace(std::move(knobs));
  }
};

const CudaTemplate& cuda_template() {
  static const CudaTemplate t;
  return t;
}

const CpuNativeTemplate& cpu_native_template() {
  static const CpuNativeTemplate t;
  return t;
}

const SystolicTemplate& systolic_template() {
  static const SystolicTemplate t;
  return t;
}

}  // namespace

TemplateRegistry::TemplateRegistry()
    : templates_{&cuda_template(), &cpu_native_template(),
                 &systolic_template()} {}

const TemplateRegistry& TemplateRegistry::instance() {
  static const TemplateRegistry registry;
  return registry;
}

const char* TemplateRegistry::native_template_name(TargetKind kind) {
  switch (kind) {
    case TargetKind::kGpu:
      return kDefaultTemplateName;  // the CUDA space is GPU-native
    case TargetKind::kCpu:
      return "cpu-native";
    case TargetKind::kFpga:
      return "systolic";
  }
  throw InternalError("unhandled target kind");
}

const ScheduleTemplate& TemplateRegistry::get(const std::string& name) const {
  for (const ScheduleTemplate* t : templates_) {
    if (t->name() == name) return *t;
  }
  std::string valid;
  for (const ScheduleTemplate* t : templates_) {
    if (!valid.empty()) valid += ", ";
    valid += t->name();
  }
  throw InvalidArgument("unknown schedule template '" + name +
                        "' (valid: " + valid + ")");
}

const ScheduleTemplate& TemplateRegistry::resolve(
    const std::string& request, const TargetSpec& target) const {
  std::string name = request;
  if (name.empty() || name == "default") name = kDefaultTemplateName;
  if (name == "native") name = native_template_name(target.kind);
  const ScheduleTemplate& tmpl = get(name);
  if (!tmpl.serves(target.kind)) {
    std::string valid;
    for (const std::string& n : template_names_for(target.kind)) {
      if (!valid.empty()) valid += ", ";
      valid += n;
    }
    throw InvalidArgument("schedule template '" + name +
                          "' does not serve target '" + target.name +
                          "' (valid for this target: " + valid +
                          ", plus the aliases 'default' and 'native')");
  }
  return tmpl;
}

ConfigSpace TemplateRegistry::build(const Workload& workload,
                                    const TargetSpec& target,
                                    const std::string& request) const {
  return resolve(request, target).build(workload, target);
}

std::vector<std::string> TemplateRegistry::template_names() const {
  std::vector<std::string> out;
  out.reserve(templates_.size());
  for (const ScheduleTemplate* t : templates_) out.push_back(t->name());
  return out;
}

std::vector<std::string> TemplateRegistry::template_names_for(
    TargetKind kind) const {
  std::vector<std::string> out;
  for (const ScheduleTemplate* t : templates_) {
    if (t->serves(kind)) out.push_back(t->name());
  }
  return out;
}

}  // namespace aal
