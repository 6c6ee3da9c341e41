// Shared helpers for the aaltune test suite.
#pragma once

#include <cstdlib>

#include "graph/graph.hpp"
#include "hwsim/target.hpp"
#include "ir/workload.hpp"
#include "space/template_registry.hpp"

namespace aal::testing {

/// A small conv2d workload whose space has ~10^5 points — large enough to
/// exercise search logic, small enough for fast tests.
inline Workload small_conv_workload() {
  Conv2dWorkload w;
  w.batch = 1;
  w.in_channels = 16;
  w.height = 28;
  w.width = 28;
  w.out_channels = 32;
  w.kernel_h = 3;
  w.kernel_w = 3;
  w.stride_h = 1;
  w.stride_w = 1;
  w.pad_h = 1;
  w.pad_w = 1;
  return Workload::conv2d(w);
}

/// A depthwise workload of similar scale.
inline Workload small_depthwise_workload() {
  Conv2dWorkload w;
  w.batch = 1;
  w.in_channels = 32;
  w.height = 28;
  w.width = 28;
  w.out_channels = 32;
  w.kernel_h = 3;
  w.kernel_w = 3;
  w.pad_h = 1;
  w.pad_w = 1;
  w.groups = 32;
  return Workload::conv2d(w);
}

/// A small dense workload.
inline Workload small_dense_workload() {
  DenseWorkload w;
  w.batch = 1;
  w.in_features = 256;
  w.out_features = 128;
  return Workload::dense(w);
}

/// The CUDA-shaped space of `workload` on the paper's gpu-pascal target.
inline ConfigSpace cuda_space(const Workload& workload) {
  return TemplateRegistry::instance().build(workload,
                                            make_target("gpu-pascal"));
}

/// A tiny CNN graph: conv -> bn -> relu -> dw conv -> relu -> pool ->
/// flatten -> dense -> softmax. Used by fusion/pipeline tests.
inline Graph tiny_cnn() {
  Graph g("tiny_cnn");
  NodeId x = g.add_input("data", {Shape{1, 8, 16, 16}, DType::kFloat32});
  x = g.conv2d("conv1", x, 16, 3, 1, 1);
  x = g.batch_norm("conv1_bn", x);
  x = g.relu("conv1_relu", x);
  x = g.depthwise_conv2d("dw1", x, 3, 1, 1);
  x = g.relu("dw1_relu", x);
  x = g.max_pool2d("pool", x, 2, 2);
  x = g.flatten("flatten", x);
  x = g.dense("fc", x, 10);
  g.softmax("prob", x);
  g.validate();
  return g;
}

}  // namespace aal::testing
