// TemplateRegistry API: request resolution (aliases, exact names, family
// validation) and the template qualification of task keys. The
// per-template decode/feasibility property suites live in
// test_native_templates.cpp.
#include <gtest/gtest.h>

#include <algorithm>

#include "hwsim/target.hpp"
#include "measure/tuning_task.hpp"
#include "space/schedule_template.hpp"
#include "space/template_registry.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

TEST(TemplateRegistry, ListsTheThreeShippedTemplates) {
  const auto names = TemplateRegistry::instance().template_names();
  EXPECT_EQ(names,
            (std::vector<std::string>{"cuda", "cpu-native", "systolic"}));
}

TEST(TemplateRegistry, EmptyAndDefaultResolveToCudaOnEveryTarget) {
  const TemplateRegistry& reg = TemplateRegistry::instance();
  for (const std::string& name : target_names()) {
    const TargetSpec target = make_target(name);
    EXPECT_EQ(reg.resolve("", target).name(), kDefaultTemplateName) << name;
    EXPECT_EQ(reg.resolve("default", target).name(), kDefaultTemplateName)
        << name;
  }
}

TEST(TemplateRegistry, NativeResolvesPerTargetFamily) {
  const TemplateRegistry& reg = TemplateRegistry::instance();
  // The CUDA space is GPU-native, so "native" is the default there.
  EXPECT_EQ(reg.resolve("native", make_target("gpu-pascal")).name(), "cuda");
  EXPECT_EQ(reg.resolve("native", make_target("cpu-simd")).name(),
            "cpu-native");
  EXPECT_EQ(reg.resolve("native", make_target("fpga-systolic")).name(),
            "systolic");
}

TEST(TemplateRegistry, NativeTemplateNameCoversEveryKind) {
  EXPECT_STREQ(TemplateRegistry::native_template_name(TargetKind::kGpu),
               "cuda");
  EXPECT_STREQ(TemplateRegistry::native_template_name(TargetKind::kCpu),
               "cpu-native");
  EXPECT_STREQ(TemplateRegistry::native_template_name(TargetKind::kFpga),
               "systolic");
}

TEST(TemplateRegistry, ExactNamesAreValidatedAgainstTheTargetFamily) {
  const TemplateRegistry& reg = TemplateRegistry::instance();
  EXPECT_EQ(reg.resolve("systolic", make_target("fpga-systolic")).name(),
            "systolic");
  EXPECT_EQ(reg.resolve("cpu-native", make_target("cpu-simd")).name(),
            "cpu-native");
  // Family mismatches throw, naming the valid set for the target.
  EXPECT_THROW((void)reg.resolve("systolic", make_target("gpu-pascal")),
               InvalidArgument);
  EXPECT_THROW((void)reg.resolve("cpu-native", make_target("fpga-systolic")),
               InvalidArgument);
  EXPECT_THROW((void)reg.resolve("systolic", make_target("cpu-simd")),
               InvalidArgument);
}

TEST(TemplateRegistry, UnknownNamesThrow) {
  const TemplateRegistry& reg = TemplateRegistry::instance();
  EXPECT_THROW((void)reg.resolve("no-such-template",
                                 make_target("gpu-pascal")),
               InvalidArgument);
  EXPECT_THROW((void)reg.get("no-such-template"), InvalidArgument);
}

TEST(TemplateRegistry, GetSkipsFamilyValidation) {
  // Store-key decode paths look templates up by exact name even when the
  // local process has no target of the matching family registered.
  EXPECT_EQ(TemplateRegistry::instance().get("systolic").name(), "systolic");
  EXPECT_EQ(TemplateRegistry::instance().get("cpu-native").name(),
            "cpu-native");
}

TEST(TemplateRegistry, TemplateNamesForKindMatchServes) {
  const TemplateRegistry& reg = TemplateRegistry::instance();
  EXPECT_EQ(reg.template_names_for(TargetKind::kGpu),
            (std::vector<std::string>{"cuda"}));
  EXPECT_EQ(reg.template_names_for(TargetKind::kCpu),
            (std::vector<std::string>{"cuda", "cpu-native"}));
  EXPECT_EQ(reg.template_names_for(TargetKind::kFpga),
            (std::vector<std::string>{"cuda", "systolic"}));
}

TEST(TemplateRegistry, DefaultTemplateKeysAreUnqualified) {
  const Workload w = testing::small_conv_workload();
  // Default target + default template: the bare legacy key.
  EXPECT_EQ(TuningTask::key_for(w, TargetSpec{}), w.key());
  // "native" on a GPU resolves to cuda, so still no suffix.
  EXPECT_EQ(TuningTask::key_for(w, make_target("gpu-pascal"), "native"),
            w.key());
  // Non-default target, default template: target-qualified only.
  EXPECT_EQ(TuningTask::key_for(w, make_target("cpu-simd")),
            w.key() + "@cpu-simd");
}

TEST(TemplateRegistry, NativeTemplateKeysCarryTheSuffix) {
  const Workload w = testing::small_conv_workload();
  EXPECT_EQ(TuningTask::key_for(w, make_target("cpu-simd"), "native"),
            w.key() + "@cpu-simd#cpu-native");
  EXPECT_EQ(TuningTask::key_for(w, make_target("fpga-systolic"), "systolic"),
            w.key() + "@fpga-systolic#systolic");
}

TEST(TemplateRegistry, TuningTaskThreadsTemplateIdentity) {
  const Workload w = testing::small_conv_workload();
  const TuningTask task(w, make_target("fpga-systolic"), "native");
  EXPECT_EQ(task.template_name(), "systolic");
  EXPECT_EQ(&task.schedule_template(),
            &TemplateRegistry::instance().get("systolic"));
  EXPECT_EQ(task.key(), w.key() + "@fpga-systolic#systolic");
  // The same task built with the default request keeps the legacy key and
  // a different (CUDA-shaped) space.
  const TuningTask legacy(w, make_target("fpga-systolic"));
  EXPECT_EQ(legacy.template_name(), kDefaultTemplateName);
  EXPECT_EQ(legacy.key(), w.key() + "@fpga-systolic");
  EXPECT_NE(task.space().size(), legacy.space().size());
}

TEST(TemplateRegistry, TuningTaskRejectsFamilyMismatch) {
  const Workload w = testing::small_conv_workload();
  EXPECT_THROW(TuningTask(w, make_target("gpu-pascal"), "systolic"),
               InvalidArgument);
  EXPECT_THROW(TuningTask(w, make_target("cpu-simd"), "bogus"),
               InvalidArgument);
}

TEST(TemplateRegistry, SplitCappedFiltersEntitiesByPerPartCaps) {
  const Knob k = Knob::split_capped("tile", 64, 3, {0, 8, 4});
  EXPECT_GT(k.size(), 0);
  EXPECT_LT(k.size(), Knob::split("tile", 64, 3).size());
  for (const auto& entity : k.as_split().entities) {
    std::int64_t prod = 1;
    for (std::int64_t f : entity) prod *= f;
    EXPECT_EQ(prod, 64);          // still exact factorizations
    EXPECT_LE(entity[1], 8);      // capped parts respect their caps
    EXPECT_LE(entity[2], 4);
  }
}

TEST(TemplateRegistry, SplitCappedFallsBackWhenCapsRejectEverything) {
  // A prime extent above every cap has no satisfying factorization; the
  // knob must keep the unfiltered set (the constraint layer is the net).
  const Knob capped = Knob::split_capped("tile", 13, 2, {4, 4});
  const Knob full = Knob::split("tile", 13, 2);
  EXPECT_EQ(capped.size(), full.size());
}

}  // namespace
}  // namespace aal
