// Property suite for the task embeddings and the store-side index.
//
// The load-bearing invariant: an embedding is a pure function of task
// identity. Nothing about how the store is laid out on disk — shard count,
// compaction state, which process opened it — may change what the transfer
// layer computes, or warm runs would stop being reproducible across the
// fleet.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "hwsim/target.hpp"
#include "measure/tuning_task.hpp"
#include "store/record_store.hpp"
#include "transfer/task_embedding.hpp"
#include "transfer/task_index.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

namespace fs = std::filesystem;

std::vector<Workload> sample_workloads() {
  std::vector<Workload> out = {testing::small_conv_workload(),
                               testing::small_depthwise_workload(),
                               testing::small_dense_workload()};
  Conv2dWorkload wide;
  wide.batch = 1;
  wide.in_channels = 32;
  wide.height = 14;
  wide.width = 14;
  wide.out_channels = 64;
  wide.kernel_h = 1;
  wide.kernel_w = 1;
  out.push_back(Workload::conv2d(wide));
  return out;
}

TEST(TaskEmbedding, FixedWidthAndDeterministic) {
  const TargetSpec target = make_target("gpu-pascal");
  for (const Workload& w : sample_workloads()) {
    const std::vector<double> a = embed_task(w, target);
    const std::vector<double> b = embed_task(w, target);
    EXPECT_EQ(a.size(), static_cast<std::size_t>(kTaskEmbeddingDim));
    EXPECT_EQ(a, b) << w.key();  // bitwise: pure function of identity
  }
}

TEST(TaskEmbedding, DistinctTasksEmbedDistinctly) {
  const TargetSpec target = make_target("gpu-pascal");
  const std::vector<Workload> workloads = sample_workloads();
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    for (std::size_t j = i + 1; j < workloads.size(); ++j) {
      EXPECT_GT(embedding_distance(embed_task(workloads[i], target),
                                   embed_task(workloads[j], target)),
                0.0)
          << workloads[i].key() << " vs " << workloads[j].key();
    }
  }
  // The target envelope is part of the identity too.
  const Workload w = workloads[0];
  EXPECT_GT(embedding_distance(embed_task(w, make_target("gpu-pascal")),
                               embed_task(w, make_target("fpga-systolic"))),
            0.0);
}

TEST(TaskEmbedding, DistanceIsSymmetricNonNegativeAndZeroOnSelf) {
  const TargetSpec target = make_target("cpu-simd");
  const std::vector<Workload> workloads = sample_workloads();
  for (const Workload& a : workloads) {
    const std::vector<double> ea = embed_task(a, target);
    EXPECT_DOUBLE_EQ(embedding_distance(ea, ea), 0.0);
    for (const Workload& b : workloads) {
      const std::vector<double> eb = embed_task(b, target);
      const double ab = embedding_distance(ea, eb);
      EXPECT_GE(ab, 0.0);
      EXPECT_DOUBLE_EQ(ab, embedding_distance(eb, ea));
    }
  }
}

class TaskIndexStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("aal_task_index_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Populates a store with one synthetic record per (workload, target)
  /// pair — enough to register the task keys the index is built from.
  void populate(RecordStore& store) {
    const TargetSpec pascal = make_target("gpu-pascal");
    const TargetSpec volta = make_target("gpu-volta");
    for (const Workload& w : sample_workloads()) {
      for (const TargetSpec* t : {&pascal, &volta}) {
        store.append(TuningRecord{TuningTask::key_for(w, *t), 0, true, 100.0,
                                  10.0, ""});
      }
    }
    store.flush();
  }

  /// Flattens nearest() output into a comparable fingerprint.
  static std::vector<std::string> nearest_fingerprint(const TaskIndex& index) {
    const Workload query = testing::small_conv_workload();
    const TargetSpec target = make_target("gpu-volta");
    std::vector<std::string> out;
    for (const PriorTask& t : index.nearest(query, target, 8, 1e9)) {
      std::string line = t.task_key + "|" + std::to_string(t.distance);
      for (double v : t.embedding) line.append(",").append(std::to_string(v));
      out.push_back(std::move(line));
    }
    return out;
  }

  std::string dir_;
};

TEST_F(TaskIndexStoreTest, IndexIsInvariantToShardCount) {
  // Same records, radically different on-disk sharding: the index (and the
  // nearest-task ranking, distances and embeddings included) must not move.
  const std::string dir4 = dir_ + "_s4";
  const std::string dir64 = dir_ + "_s64";
  {
    RecordStore a(dir4, {.num_shards = 4});
    RecordStore b(dir64, {.num_shards = 64});
    populate(a);
    populate(b);
  }
  RecordStore a(dir4, {.read_only = true});
  RecordStore b(dir64, {.read_only = true});
  const TaskIndex index_a(a);
  const TaskIndex index_b(b);
  EXPECT_EQ(index_a.size(), index_b.size());
  EXPECT_GT(index_a.size(), 0u);
  EXPECT_EQ(nearest_fingerprint(index_a), nearest_fingerprint(index_b));
  fs::remove_all(dir4);
  fs::remove_all(dir64);
}

TEST_F(TaskIndexStoreTest, IndexIsInvariantToCompaction) {
  {
    RecordStore store(dir_);
    populate(store);
    // Extra records per key so compact() has something to drop.
    for (const std::string& key : store.task_keys()) {
      for (std::int64_t flat = 1; flat <= 20; ++flat) {
        store.append(TuningRecord{key, flat, true, 50.0, 20.0, ""});
      }
    }
    store.flush();
  }
  std::vector<std::string> before;
  {
    RecordStore store(dir_, {.read_only = true});
    before = nearest_fingerprint(TaskIndex(store));
  }
  {
    RecordStore store(dir_);
    ASSERT_GT(store.compact(4), 0u);  // compaction really rewrote shards
  }
  RecordStore store(dir_, {.read_only = true});
  EXPECT_EQ(nearest_fingerprint(TaskIndex(store)), before);
}

TEST_F(TaskIndexStoreTest, FreshHandlesIndexIdentically) {
  // Two independently-opened handles on the same directory stand in for two
  // processes: the index is a pure function of the store's key set, so both
  // must compute identical results.
  {
    RecordStore store(dir_);
    populate(store);
  }
  RecordStore first(dir_, {.read_only = true});
  RecordStore second(dir_, {.read_only = true});
  EXPECT_EQ(nearest_fingerprint(TaskIndex(first)),
            nearest_fingerprint(TaskIndex(second)));
}

TEST_F(TaskIndexStoreTest, NearestFiltersKindTargetAndSelf) {
  {
    RecordStore store(dir_);
    populate(store);
  }
  RecordStore store(dir_, {.read_only = true});
  const TaskIndex index(store);
  const Workload query = testing::small_conv_workload();
  const TargetSpec volta = make_target("gpu-volta");
  const std::string self_key = TuningTask::key_for(query, volta);
  const std::vector<PriorTask> nearest = index.nearest(query, volta, 16, 1e9);
  EXPECT_FALSE(nearest.empty());
  for (const PriorTask& t : nearest) {
    EXPECT_NE(t.task_key, self_key);  // own records arrive via store preload
    EXPECT_EQ(t.workload.kind(), query.kind());
    EXPECT_EQ(t.target_name, "gpu-volta");  // no cross-target leakage
  }
  // Unparseable keys are skipped, not fatal, and are accounted for.
  EXPECT_EQ(index.unparsed(), 0u);
}

TEST_F(TaskIndexStoreTest, ForeignKeysAreCountedNotFatal) {
  {
    RecordStore store(dir_);
    populate(store);
    store.append(TuningRecord{"future_op/v2_whoknows", 0, true, 1.0, 1.0, ""});
    store.flush();
  }
  RecordStore store(dir_, {.read_only = true});
  const TaskIndex index(store);
  EXPECT_EQ(index.unparsed(), 1u);
  EXPECT_GT(index.size(), 0u);
}

}  // namespace
}  // namespace aal
