#include "graph/models.hpp"

#include <gtest/gtest.h>

#include "graph/fusion.hpp"
#include "support/common.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

TEST(Models, ZooNamesBuild) {
  for (const auto& name : model_zoo_names()) {
    const Graph g = make_model(name);
    EXPECT_GT(g.size(), 10u) << name;
    EXPECT_NO_THROW(g.validate()) << name;
  }
}

TEST(Models, UnknownNameThrows) {
  EXPECT_THROW(make_model("resnet50"), InvalidArgument);
  EXPECT_THROW(model_display_name("nope"), InvalidArgument);
}

TEST(Models, DisplayNamesMatchPaperTable) {
  EXPECT_EQ(model_display_name("alexnet"), "AlexNet");
  EXPECT_EQ(model_display_name("resnet18"), "ResNet-18");
  EXPECT_EQ(model_display_name("vgg16"), "VGG-16");
  EXPECT_EQ(model_display_name("mobilenet_v1"), "MobileNet-v1");
  EXPECT_EQ(model_display_name("squeezenet_v11"), "SqueezeNet-v1.1");
}

TEST(Models, AllEndIn1000WaySoftmax) {
  for (const auto& name : model_zoo_names()) {
    const Graph g = make_model(name);
    const Node& last = g.nodes().back();
    EXPECT_EQ(last.op.type, OpType::kSoftmax) << name;
    EXPECT_EQ(last.output.shape[last.output.shape.rank() - 1], 1000) << name;
  }
}

TEST(Models, Vgg16FlopsMatchLiterature) {
  // VGG-16 inference is ~30.9 GFLOPs (multiply-add counted as 2).
  const Graph g = make_vgg16();
  EXPECT_NEAR(static_cast<double>(g.total_flops()) / 1e9, 30.9, 0.5);
}

TEST(Models, MobileNetFlopsMatchLiterature) {
  // MobileNet-v1 is ~1.1-1.2 GFLOPs at 224x224 (0.57 GMACs x2).
  const Graph g = make_mobilenet_v1();
  EXPECT_NEAR(static_cast<double>(g.total_flops()) / 1e9, 1.15, 0.15);
}

TEST(Models, ResNet18FlopsMatchLiterature) {
  // ResNet-18 is ~3.6 GFLOPs.
  const Graph g = make_resnet18();
  EXPECT_NEAR(static_cast<double>(g.total_flops()) / 1e9, 3.6, 0.3);
}

TEST(Models, AlexNetFlopsMatchLiterature) {
  // AlexNet (torchvision) is ~1.4 GFLOPs.
  const Graph g = make_alexnet();
  EXPECT_NEAR(static_cast<double>(g.total_flops()) / 1e9, 1.4, 0.2);
}

TEST(Models, AlexNetStructure) {
  const Graph g = make_alexnet();
  const auto tasks = extract_tasks(fuse(g));
  int convs = 0, denses = 0;
  for (const auto& t : tasks) {
    (t.workload.is_conv() ? convs : denses)++;
  }
  EXPECT_EQ(convs, 5);
  EXPECT_EQ(denses, 3);
}

TEST(Models, Vgg16TaskCounts) {
  const auto tasks = extract_tasks(fuse(make_vgg16()));
  int convs = 0, denses = 0;
  for (const auto& t : tasks) {
    (t.workload.is_conv() ? convs : denses)++;
  }
  // 13 conv layers dedup to 9 unique workloads; 3 distinct FC layers.
  EXPECT_EQ(convs, 9);
  EXPECT_EQ(denses, 3);
}

TEST(Models, ResNet18TaskCounts) {
  const auto tasks = extract_tasks(fuse(make_resnet18()));
  int convs = 0, denses = 0;
  for (const auto& t : tasks) {
    (t.workload.is_conv() ? convs : denses)++;
  }
  // stem + (3x3 and 1x1-projection workloads across 4 stages) = 11 unique.
  EXPECT_EQ(convs, 11);
  EXPECT_EQ(denses, 1);
}

TEST(Models, SqueezeNetSpatialPipeline) {
  const Graph g = make_squeezenet_v11();
  // conv1 on 224 input with k3 s2 p0 -> 111.
  bool found_111 = false;
  for (const Node& n : g.nodes()) {
    if (n.name == "conv1") {
      EXPECT_EQ(n.output.shape, Shape({1, 64, 111, 111}));
      found_111 = true;
    }
  }
  EXPECT_TRUE(found_111);
}

TEST(Models, BatchPropagates) {
  const Graph g = make_mobilenet_v1(4);
  EXPECT_EQ(g.nodes().front().output.shape[0], 4);
  EXPECT_EQ(g.nodes().back().output.shape[0], 4);
}

TEST(Models, TotalUniqueTasksAcrossZoo) {
  // The paper reports 58 nodes to optimize over the five models; our zoo
  // (torchvision layouts, FC layers included) extracts 70 unique tasks of
  // which 62 are convolutions. The per-model counts are pinned here so any
  // zoo change is a conscious decision.
  std::size_t total = 0, convs = 0;
  for (const auto& name : model_zoo_names()) {
    const auto tasks = extract_tasks(fuse(make_model(name)));
    total += tasks.size();
    for (const auto& t : tasks) {
      if (t.workload.is_conv()) ++convs;
    }
  }
  EXPECT_EQ(total, 70u);
  EXPECT_EQ(convs, 62u);
}

TEST(Models, AverageSpaceSizeTensOfMillions) {
  // "On average, each node has more than 50 million configuration points."
  // MobileNet-v1's tasks are the smallest of the zoo (averaging ~15M; the
  // VGG-16 tasks reach 2x10^8), so assert the right order of magnitude
  // here rather than the all-model average.
  const auto tasks = extract_tasks(fuse(make_mobilenet_v1()));
  double total = 0.0;
  int counted = 0;
  for (const auto& t : tasks) {
    if (!t.workload.is_conv()) continue;
    total += static_cast<double>(
        testing::cuda_space(t.workload).size());
    ++counted;
  }
  EXPECT_GT(total / counted, 1e7);
}

}  // namespace
}  // namespace aal
