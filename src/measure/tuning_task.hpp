// A tuning task: one workload bound to its configuration space and the
// hardware model that evaluates it. This is the object every tuner consumes
// (AutoTVM's `Task`), and it is deliberately measurement-free: the Measurer
// owns the (stateful, noisy) device.
//
// The task is target- and template-aware: it resolves a schedule-template
// request through the TemplateRegistry, builds the space with that template,
// builds the backend's DeviceModel decoding through the same template, and
// attaches the model's hardware-native constraints to the space, so every
// sampling path (initial pools, neighborhoods, mutation proposals) prunes
// infeasible configs before they reach a tuner. GPU targets attach zero
// constraints — the default landscape is untouched.
#pragma once

#include <memory>
#include <string>

#include "hwsim/device_model.hpp"
#include "hwsim/target.hpp"
#include "ir/workload.hpp"
#include "space/config_space.hpp"
#include "space/schedule_template.hpp"
#include "space/template_registry.hpp"

namespace aal {

class TuningTask {
 public:
  /// `template_request` uses the registry vocabulary: "" / "default" for the
  /// CUDA-shaped space, "native" for the target family's native template, or
  /// an exact template name. Invalid requests throw InvalidArgument.
  explicit TuningTask(Workload workload, TargetSpec target,
                      const std::string& template_request = std::string())
      : workload_(std::move(workload)),
        template_(&TemplateRegistry::instance().resolve(template_request,
                                                        target)),
        space_(template_->build(workload_, target)),
        model_(make_device_model(workload_, std::move(target), template_)) {
    space_.set_constraints(model_->constraints());
  }

  const Workload& workload() const { return workload_; }
  const ConfigSpace& space() const { return space_; }
  const TargetSpec& target() const { return model_->target(); }
  const DeviceModel& model() const { return *model_; }

  /// The schedule template that built (and decodes) this task's space.
  const ScheduleTemplate& schedule_template() const { return *template_; }

  /// Resolved template name ("cuda", "cpu-native", "systolic").
  const std::string& template_name() const { return template_->name(); }

  /// Deterministic profile of one configuration (no measurement noise).
  KernelProfile profile(const Config& config) const {
    return model_->profile(space_, config);
  }

  /// Task identity key: `<workload>[@<target>][#<template>]`. The default
  /// target keeps the bare workload key and the default template omits the
  /// suffix, so historical record logs and stores keep resolving; other
  /// targets/templates qualify the key — records measured on one backend
  /// (or drawn from one space shape) must never warm-start another.
  std::string key() const {
    return key_for(workload_, model_->target(), template_->name());
  }

  /// The key a task built from (workload, target, template request) would
  /// report, without building the task (callers that only need the
  /// identity). The request is resolved through the registry, so "native"
  /// and "" yield the same keys the constructed task would.
  static std::string key_for(const Workload& workload,
                             const TargetSpec& target,
                             const std::string& template_request =
                                 std::string()) {
    std::string key = workload.key();
    if (target.name != "gpu-pascal") key += "@" + target.name;
    const std::string& resolved =
        TemplateRegistry::instance().resolve(template_request, target).name();
    if (resolved != kDefaultTemplateName) key += "#" + resolved;
    return key;
  }

 private:
  Workload workload_;
  const ScheduleTemplate* template_;  // registry singleton, never null
  ConfigSpace space_;
  std::unique_ptr<DeviceModel> model_;
};

}  // namespace aal
