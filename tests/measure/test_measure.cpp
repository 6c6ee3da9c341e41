#include "measure/measure.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "test_util.hpp"

namespace aal {
namespace {

class MeasureTest : public ::testing::Test {
 protected:
  TargetSpec spec_ = make_target("gpu-pascal");
  TuningTask task_{testing::small_conv_workload(), spec_};
  SimulatedDevice device_{spec_, 99};
  Measurer measurer_{task_, device_};  // 3 timing repeats
};

TEST_F(MeasureTest, MeasureReturnsConsistentResult) {
  Rng rng(1);
  const Config c = task_.space().sample(rng);
  const MeasureResult& r = measurer_.measure(c);
  EXPECT_EQ(r.config.flat, c.flat);
  if (r.ok) {
    EXPECT_GT(r.gflops, 0.0);
    EXPECT_GT(r.mean_time_us, 0.0);
  } else {
    EXPECT_DOUBLE_EQ(r.gflops, 0.0);
    EXPECT_FALSE(r.error.empty());
  }
}

TEST_F(MeasureTest, MemoizationCostsNoBudget) {
  Rng rng(2);
  const Config c = task_.space().sample(rng);
  measurer_.measure(c);
  EXPECT_EQ(measurer_.num_measured(), 1);
  const MeasureResult& first = measurer_.measure(c);
  const MeasureResult& second = measurer_.measure(c);
  EXPECT_EQ(measurer_.num_measured(), 1);
  EXPECT_DOUBLE_EQ(first.gflops, second.gflops);
}

TEST_F(MeasureTest, BatchAlignsWithInput) {
  Rng rng(3);
  const auto configs = task_.space().sample_distinct(8, rng);
  const auto results = measurer_.measure_batch(configs);
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(results[i].config.flat, configs[i].flat);
  }
  EXPECT_EQ(measurer_.num_measured(), 8);
}

TEST_F(MeasureTest, BestTracksMaxGflops) {
  Rng rng(4);
  EXPECT_FALSE(measurer_.best().has_value());
  const auto configs = task_.space().sample_distinct(64, rng);
  measurer_.measure_batch(configs);
  const auto best = measurer_.best();
  ASSERT_TRUE(best.has_value());
  for (const auto& r : measurer_.all_results()) {
    if (r.ok) {
      EXPECT_LE(r.gflops, best->gflops);
    }
  }
}

TEST_F(MeasureTest, AllResultsMatchesCount) {
  Rng rng(5);
  measurer_.measure_batch(task_.space().sample_distinct(10, rng));
  EXPECT_EQ(measurer_.all_results().size(), 10u);
}

TEST_F(MeasureTest, RejectsZeroRepeats) {
  MeasureOptions zero_repeats;
  zero_repeats.repeats = 0;
  EXPECT_THROW(Measurer(task_, device_, zero_repeats), InvalidArgument);
}

TEST_F(MeasureTest, PreloadSeedsCacheAndBest) {
  Rng rng(6);
  const Config a = task_.space().sample(rng);
  const Config b = task_.space().sample(rng);
  std::vector<TuningRecord> records;
  records.push_back(TuningRecord{task_.key(), a.flat, true, 1234.5, 10.0, ""});
  records.push_back(TuningRecord{task_.key(), b.flat, false, 0.0, 0.0, ""});
  records.push_back(TuningRecord{"other/task", 0, true, 9999.0, 1.0, ""});
  records.push_back(TuningRecord{task_.key(), -5, true, 1.0, 1.0, ""});  // bad flat

  EXPECT_EQ(measurer_.preload(records), 2u);
  EXPECT_EQ(measurer_.num_measured(), 2);

  // Revisiting a preloaded config returns the historical result and costs
  // no further budget.
  const MeasureResult& r = measurer_.measure(a);
  EXPECT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.gflops, 1234.5);
  EXPECT_EQ(measurer_.num_measured(), 2);

  const auto best = measurer_.best();
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->config.flat, a.flat);
}

TEST_F(MeasureTest, PreloadIgnoresDuplicates) {
  Rng rng(7);
  const Config a = task_.space().sample(rng);
  measurer_.measure(a);
  std::vector<TuningRecord> records{
      TuningRecord{task_.key(), a.flat, true, 99999.0, 1.0, ""}};
  EXPECT_EQ(measurer_.preload(records), 0u);  // live result wins
}

TEST_F(MeasureTest, IsCachedAndFind) {
  Rng rng(8);
  const Config c = task_.space().sample(rng);
  EXPECT_FALSE(measurer_.is_cached(c.flat));
  EXPECT_EQ(measurer_.find(c.flat), nullptr);
  const MeasureResult& r = measurer_.measure(c);
  EXPECT_TRUE(measurer_.is_cached(c.flat));
  const MeasureResult* found = measurer_.find(c.flat);
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->gflops, r.gflops);
}

TEST_F(MeasureTest, AllResultsPreservesCommitOrder) {
  Rng rng(9);
  const auto configs = task_.space().sample_distinct(12, rng);
  measurer_.measure_batch(configs);
  const auto results = measurer_.all_results();
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(results[i].config.flat, configs[i].flat);
  }
}

TEST_F(MeasureTest, BatchHandlesDuplicateInputs) {
  Rng rng(10);
  const Config c = task_.space().sample(rng);
  const std::vector<Config> batch{c, c, c};
  const auto results = measurer_.measure_batch(batch);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_DOUBLE_EQ(results[0].gflops, results[1].gflops);
  EXPECT_DOUBLE_EQ(results[0].gflops, results[2].gflops);
  EXPECT_EQ(measurer_.num_measured(), 1);
}

TEST_F(MeasureTest, ParallelBackendMatchesSerialBitwise) {
  Rng rng(11);
  const auto configs = task_.space().sample_distinct(48, rng);

  SimulatedDevice serial_device(spec_, 99);
  Measurer serial_measurer(task_, serial_device);
  SerialBackend serial;
  const auto serial_results = serial_measurer.measure_batch(configs, serial);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    SimulatedDevice parallel_device(spec_, 99);
    Measurer parallel_measurer(task_, parallel_device);
    ParallelBackend parallel(threads);
    const auto parallel_results =
        parallel_measurer.measure_batch(configs, parallel);

    ASSERT_EQ(parallel_results.size(), serial_results.size());
    for (std::size_t i = 0; i < serial_results.size(); ++i) {
      EXPECT_EQ(parallel_results[i].config.flat, serial_results[i].config.flat);
      EXPECT_EQ(parallel_results[i].ok, serial_results[i].ok);
      EXPECT_DOUBLE_EQ(parallel_results[i].gflops, serial_results[i].gflops);
      EXPECT_DOUBLE_EQ(parallel_results[i].mean_time_us,
                       serial_results[i].mean_time_us);
    }
    // Commit order (and therefore all_results / best tracking) must match
    // the serial path exactly.
    const auto serial_all = serial_measurer.all_results();
    const auto parallel_all = parallel_measurer.all_results();
    ASSERT_EQ(parallel_all.size(), serial_all.size());
    for (std::size_t i = 0; i < serial_all.size(); ++i) {
      EXPECT_EQ(parallel_all[i].config.flat, serial_all[i].config.flat);
    }
  }
}

TEST_F(MeasureTest, ResumeThenMeasureEqualsFreshMeasure) {
  // Regression: a measurer resumed from persisted records and then driven
  // over new configs must produce exactly the values a fresh measurer
  // produces — prior history cannot perturb later measurements (the device
  // noise is a pure function of (seed, flat, repeat)).
  Rng rng(12);
  const auto first_half = task_.space().sample_distinct(10, rng);
  const auto second_half = task_.space().sample_distinct(10, rng);

  // Fresh run over both halves.
  SimulatedDevice fresh_device(spec_, 321);
  Measurer fresh(task_, fresh_device);
  fresh.measure_batch(first_half);
  const auto fresh_second = fresh.measure_batch(second_half);

  // Persist the first half, resume a new measurer from it, measure the rest.
  std::vector<TuningRecord> records;
  for (const auto& r : fresh.all_results()) {
    if (static_cast<std::size_t>(records.size()) >= first_half.size()) break;
    records.push_back(TuningRecord{task_.key(), r.config.flat, r.ok, r.gflops,
                                   r.mean_time_us, ""});
  }
  SimulatedDevice resumed_device(spec_, 321);
  Measurer resumed(task_, resumed_device);
  EXPECT_EQ(resumed.preload(records), first_half.size());
  const auto resumed_second = resumed.measure_batch(second_half);

  ASSERT_EQ(resumed_second.size(), fresh_second.size());
  for (std::size_t i = 0; i < fresh_second.size(); ++i) {
    EXPECT_EQ(resumed_second[i].config.flat, fresh_second[i].config.flat);
    EXPECT_DOUBLE_EQ(resumed_second[i].gflops, fresh_second[i].gflops);
    EXPECT_DOUBLE_EQ(resumed_second[i].mean_time_us,
                     fresh_second[i].mean_time_us);
  }
  // Revisits of preloaded configs return the historical values.
  for (std::size_t i = 0; i < first_half.size(); ++i) {
    const MeasureResult& replay = resumed.measure(first_half[i]);
    EXPECT_DOUBLE_EQ(replay.gflops, records[i].gflops);
  }
  EXPECT_EQ(resumed.num_measured(), fresh.num_measured());
}

TEST_F(MeasureTest, FailedConfigKeepsErrorThroughCacheHits) {
  // Regression: the error string of a failed config must survive later
  // visits served from the memo cache, through both the single-config and
  // the batch path.
  std::optional<Config> failing;
  for (std::int64_t flat = 0; flat < task_.space().size(); ++flat) {
    const Config c = task_.space().at(flat);
    if (!task_.profile(c).valid) {
      failing = c;
      break;
    }
  }
  ASSERT_TRUE(failing.has_value()) << "space has no invalid config";

  const auto first = measurer_.measure_batch(std::vector<Config>{*failing});
  ASSERT_FALSE(first.at(0).ok);
  ASSERT_FALSE(first.at(0).error.empty());

  const MeasureResult& single_revisit = measurer_.measure(*failing);
  EXPECT_EQ(single_revisit.error, first.at(0).error);
  const auto batch_revisit =
      measurer_.measure_batch(std::vector<Config>{*failing});
  EXPECT_EQ(batch_revisit.at(0).error, first.at(0).error);
  EXPECT_EQ(measurer_.num_measured(), 1);
}

TEST_F(MeasureTest, PreloadKeepsPersistedErrorString) {
  Rng rng(13);
  const Config a = task_.space().sample(rng);
  const Config b = task_.space().sample(rng);
  std::vector<TuningRecord> records;
  records.push_back(TuningRecord{task_.key(), a.flat, false, 0.0, 0.0,
                                 "transient timeout (injected, attempt 0)"});
  // Legacy record without an error column falls back to the placeholder.
  records.push_back(TuningRecord{task_.key(), b.flat, false, 0.0, 0.0, ""});
  ASSERT_EQ(measurer_.preload(records), 2u);
  EXPECT_EQ(measurer_.measure(a).error,
            "transient timeout (injected, attempt 0)");
  EXPECT_EQ(measurer_.measure(b).error, "failed in a previous session");
}

TEST(BackendTest, SerialBackendDispatchesInOrderOnCallingThread) {
  SerialBackend serial;
  std::vector<std::size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  serial.dispatch(16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  // No queue behind the serial backend.
  EXPECT_EQ(serial.queue_high_water(), 0u);
}

TEST(BackendTest, ParallelBackendTracksQueueHighWater) {
  // The gauge reports the peak number of dispatches open at once. Two
  // threads each dispatch items that block until released, so both
  // calls are open together; polling until the mark reaches two keeps the
  // test schedule-independent.
  ParallelBackend backend(2);
  EXPECT_EQ(backend.queue_high_water(), 0u);

  std::atomic<bool> release{false};
  std::atomic<int> calls{0};
  const auto blocked_dispatch = [&] {
    backend.dispatch(4, [&](std::size_t) {
      calls.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  };
  std::thread first(blocked_dispatch);
  std::thread second(blocked_dispatch);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (backend.queue_high_water() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const std::size_t high_water = backend.queue_high_water();
  release.store(true);
  first.join();
  second.join();

  EXPECT_GE(high_water, 2u);
  EXPECT_EQ(backend.queue_high_water(), 2u);
  EXPECT_EQ(calls.load(), 8);
}

TEST(BackendTest, NamesAndThreadCounts) {
  SerialBackend serial;
  EXPECT_STREQ(serial.name(), "serial");
  ParallelBackend four(4);
  EXPECT_EQ(four.threads(), 4u);
  EXPECT_STREQ(four.name(), "parallel");
  ParallelBackend shared(0);  // borrows the process-wide pool
  EXPECT_GE(shared.threads(), 1u);
}

TEST(BackendTest, DispatchCoversAllIndices) {
  for (const bool parallel : {false, true}) {
    SerialBackend serial;
    ParallelBackend pooled(4);
    MeasureBackend& backend =
        parallel ? static_cast<MeasureBackend&>(pooled) : serial;
    std::vector<int> hits(100, 0);
    backend.dispatch(hits.size(), [&](std::size_t i) { hits[i] = 1; });
    for (const int h : hits) EXPECT_EQ(h, 1);
    backend.dispatch(0, [&](std::size_t) { ADD_FAILURE() << "n=0 ran fn"; });
  }
}

TEST(TuningTaskTest, KeyAndSpace) {
  const TargetSpec spec = make_target("gpu-pascal");
  const TuningTask task(testing::small_conv_workload(), spec);
  EXPECT_EQ(task.key(), testing::small_conv_workload().key());
  EXPECT_GT(task.space().size(), 1000);
  Rng rng(6);
  const Config c = task.space().sample(rng);
  // profile() must agree with a directly constructed model.
  const KernelModel model(testing::small_conv_workload(), spec.gpu);
  const KernelProfile a = task.profile(c);
  const KernelProfile b = model.profile(task.space(), c);
  EXPECT_EQ(a.valid, b.valid);
  if (a.valid) {
    EXPECT_DOUBLE_EQ(a.base_time_us, b.base_time_us);
  }
}


TEST_F(MeasureTest, PreloadCountsAsCacheHitsNotMeasurements) {
  // Resume semantics, pinned via the metrics registry: preloaded records
  // must count measure.preloaded, and revisiting them must count cache
  // hits — never measure.configs_measured (budget is not re-spent).
  MetricsRegistry metrics;
  Obs obs;
  obs.metrics = &metrics;
  measurer_.set_obs(obs);

  Rng rng(11);
  const Config a = task_.space().sample(rng);
  const Config b = task_.space().sample(rng);
  std::vector<TuningRecord> records;
  records.push_back(TuningRecord{task_.key(), a.flat, true, 1000.0, 1.0, ""});
  records.push_back(TuningRecord{task_.key(), b.flat, true, 2000.0, 1.0, ""});
  ASSERT_EQ(measurer_.preload(records), 2u);

  EXPECT_EQ(metrics.counter_value("measure.preloaded"), 2);
  EXPECT_EQ(metrics.counter_value("measure.configs_measured"), 0);
  EXPECT_EQ(metrics.counter_value("measure.cache_hits"), 0);

  // Revisits of preloaded configs are cache hits, through both the single
  // and the batch path.
  measurer_.measure(a);
  EXPECT_EQ(metrics.counter_value("measure.cache_hits"), 1);
  const std::vector<Config> batch = {a, b};
  measurer_.measure_batch(batch);
  EXPECT_EQ(metrics.counter_value("measure.cache_hits"), 3);
  EXPECT_EQ(metrics.counter_value("measure.configs_measured"), 0);

  // A genuinely fresh config does consume budget.
  Config fresh = task_.space().sample(rng);
  while (measurer_.is_cached(fresh.flat)) fresh = task_.space().sample(rng);
  measurer_.measure(fresh);
  EXPECT_EQ(metrics.counter_value("measure.configs_measured"), 1);
}

TEST_F(MeasureTest, BatchEmitsMeasureBatchEvents) {
  MemoryTraceSink sink;
  Obs obs;
  obs.trace = &sink;
  measurer_.set_obs(obs);

  Rng rng(12);
  const Config a = task_.space().sample(rng);
  measurer_.measure(a);  // single-config path: no batch events
  EXPECT_EQ(sink.steps_emitted(), 0);

  Config b = task_.space().sample(rng);
  while (b.flat == a.flat) b = task_.space().sample(rng);
  const std::vector<Config> batch = {a, b};
  measurer_.measure_batch(batch);

  const auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, TraceEventType::kMeasureBatchBegin);
  EXPECT_EQ(events[1].type, TraceEventType::kMeasureBatchEnd);
  // {batch, fresh, cached} on begin: one revisit, one fresh.
  ASSERT_EQ(events[0].fields.size(), 3u);
  EXPECT_EQ(events[0].fields[0].value.as_int(), 2);
  EXPECT_EQ(events[0].fields[1].value.as_int(), 1);
  EXPECT_EQ(events[0].fields[2].value.as_int(), 1);
}

}  // namespace
}  // namespace aal
