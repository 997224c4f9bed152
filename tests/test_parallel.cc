// Label-sharded ingest semantics: ShardedIngestEngine must be
// indistinguishable — bit for bit, SaveState bytes included — from a
// sequential StreamIngestor, for every factory-constructible tracker
// (non-decomposable names through the sequential arm) and the
// degenerate shapes (prefix loads, more shards than workers, more
// shards than labels, empty and out-of-order streams, partial chunks).
// No tolerances anywhere: the engine promises the identical result.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analytics/registry.h"
#include "datagen/generator.h"
#include "parallel/scheduler.h"
#include "parallel/sharded_ingest.h"
#include "policies/tracker.h"
#include "stream/ingest.h"
#include "stream/interaction_stream.h"

namespace tinprov {
namespace {

// The same hand-built TIN as test_policies.cc: deficit generation,
// partial consumption, re-sends, and a self-loop over 6 interactions.
Tin HandTin() {
  std::vector<Interaction> log = {
      {1, 0, 1.0, 5.0},  // 1 generates 5, sends to 0
      {2, 0, 2.0, 3.0},  // 2 generates 3, sends to 0
      {0, 3, 3.0, 4.0},  // 0 forwards a mix
      {3, 3, 4.0, 2.0},  // self-loop at 3
      {3, 4, 5.0, 6.0},  // exceeds 3's buffer: deficit generated at 3
      {4, 0, 6.0, 1.0},  // flows back
  };
  return Tin(5, std::move(log));
}

Tin GeneratedTin() {
  GeneratorConfig config;
  config.num_vertices = 60;
  config.num_interactions = 3000;
  config.src_skew = 1.1;
  config.dst_skew = 0.9;
  config.quantity_model = QuantityModel::kLogNormal;
  config.quantity_param1 = 1.0;
  config.quantity_param2 = 1.0;
  config.self_loop_fraction = 0.05;
  config.seed = 41;
  auto tin = Generate(config);
  EXPECT_TRUE(tin.ok());
  return std::move(tin).value();
}

// Mid-range scalable configuration; small enough that Budget shrinks
// and Windowed resets actually fire while shards replay.
ScalableParams TestParams() {
  ScalableParams params;
  params.window = 500;
  params.num_tracked = 10;
  params.num_groups = 7;
  params.budget.capacity = 8;
  params.budget.keep_fraction = 0.5;
  return params;
}

void ExpectSameBuffer(const Buffer& expected, const Buffer& actual,
                      const std::string& context) {
  EXPECT_EQ(expected.total, actual.total) << context;
  ASSERT_EQ(expected.entries.size(), actual.entries.size()) << context;
  for (size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_TRUE(expected.entries[i] == actual.entries[i])
        << context << " entry " << i << ": (" << expected.entries[i].origin
        << ", " << expected.entries[i].quantity << ") vs ("
        << actual.entries[i].origin << ", " << actual.entries[i].quantity
        << ")";
  }
}

bool NotAlnum(char c) { return !std::isalnum(static_cast<unsigned char>(c)); }

std::string SanitizeName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  name.erase(std::remove_if(name.begin(), name.end(), NotAlnum), name.end());
  return name;
}

// ---------------------------------------------------------------------
// (a) The engine == a sequential StreamIngestor, for every factory name.

void ExpectSameTrackerState(const Tracker& expected, const Tracker& actual,
                            const std::string& context) {
  EXPECT_EQ(expected.total_generated(), actual.total_generated()) << context;
  ASSERT_EQ(expected.num_vertices(), actual.num_vertices()) << context;
  for (VertexId v = 0; v < expected.num_vertices(); ++v) {
    EXPECT_EQ(expected.BufferTotal(v), actual.BufferTotal(v))
        << context << " vertex " << v;
    ExpectSameBuffer(expected.Provenance(v), actual.Provenance(v),
                     context + " vertex " + std::to_string(v));
  }
  std::vector<uint8_t> expected_state, actual_state;
  expected.SaveState(&expected_state);
  actual.SaveState(&actual_state);
  EXPECT_TRUE(expected_state == actual_state)
      << context << ": SaveState bytes differ";
}

constexpr size_t kWholeLog = std::numeric_limits<size_t>::max();

// Ingests the first `prefix` interactions of `tin` as a stream through
// both paths — a sequential StreamIngestor on spec.sequential(), and
// the engine — and requires bit-identical trackers plus matching ingest
// stats. The engine must take its sharded arm exactly when the spec
// decomposes and `layout_shards` (the layout resolves to 2 or more
// workers), with `expect_shards` label shards when nonzero.
void ExpectIngestBitIdentical(const Tin& tin, const std::string& name,
                              const ParallelParams& parallel,
                              const std::string& context,
                              size_t prefix = kWholeLog,
                              bool layout_shards = true,
                              size_t expect_shards = 0) {
  auto spec = TrackerRegistry::Global().Sharded(
      {name, TestParams(), TrackerMode::kStreaming}, tin.Stats());
  ASSERT_TRUE(spec.ok()) << context << ": " << spec.status().ToString();
  const bool expect_sharded = layout_shards && spec->decomposable;

  std::unique_ptr<Tracker> reference = spec->sequential();
  IngestOptions options;
  options.batch_size = 257;  // deliberately not a divisor of the length
  StreamIngestor ingestor(reference.get(), options);
  MaterializedStream reference_stream(tin, prefix);
  ASSERT_TRUE(ingestor.IngestAll(reference_stream).ok()) << context;

  ShardedIngestEngine engine(tin.Stats(), *std::move(spec), parallel,
                             options);
  MaterializedStream stream(tin, prefix);
  auto result = engine.IngestStream(stream);
  ASSERT_TRUE(result.ok()) << context << ": " << result.status().ToString();
  EXPECT_EQ(result->used_parallel_path, expect_sharded) << context;
  EXPECT_EQ(result->num_shards, engine.ResolvedShards()) << context;
  EXPECT_EQ(result->shards.size(), expect_sharded ? result->num_shards : 0)
      << context;
  if (expect_sharded && expect_shards != 0) {
    EXPECT_EQ(result->num_shards, expect_shards) << context;
  }

  ExpectSameTrackerState(*reference, *result->tracker, context);
  EXPECT_EQ(result->stats.interactions, ingestor.stats().interactions)
      << context;
  EXPECT_EQ(result->stats.batches, ingestor.stats().batches) << context;
  EXPECT_EQ(result->stats.watermark, ingestor.stats().watermark) << context;
}

class ShardedIngestTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedIngestTest, PartialChunksMatchSequentialBitExactly) {
  // 97-interaction chunks through a 2-chunk queue force many partial
  // chunks and producer waits; 5 shards on 3 workers.
  ParallelParams parallel;
  parallel.num_threads = 3;
  parallel.num_shards = 5;
  parallel.stream_chunk = 97;
  parallel.stream_queue_chunks = 2;
  ExpectIngestBitIdentical(GeneratedTin(), GetParam(), parallel,
                           GetParam() + "/partial-chunks");
}

TEST_P(ShardedIngestTest, ShardCountSweepMatches) {
  const Tin tin = GeneratedTin();
  for (const size_t shards : {size_t{2}, size_t{3}, size_t{4}, size_t{7}}) {
    ParallelParams parallel;
    parallel.num_threads = shards;  // one worker per shard
    parallel.num_shards = shards;
    ExpectIngestBitIdentical(tin, GetParam(), parallel,
                             GetParam() + "/shards" + std::to_string(shards),
                             kWholeLog, true, shards);
  }
  // More label shards than workers: each worker feeds several shards.
  ParallelParams parallel;
  parallel.num_threads = 2;
  parallel.num_shards = 5;
  ExpectIngestBitIdentical(tin, GetParam(), parallel,
                           GetParam() + "/2-workers-5-shards", kWholeLog,
                           true, 5);
  // More workers than shards: the layout runs one worker per shard.
  parallel.num_threads = 4;
  parallel.num_shards = 2;
  ExpectIngestBitIdentical(tin, GetParam(), parallel,
                           GetParam() + "/4-threads-2-shards", kWholeLog,
                           true, 2);
}

TEST_P(ShardedIngestTest, PrefixLoadMatchesSequentialPrefix) {
  const Tin tin = GeneratedTin();
  ParallelParams parallel;
  parallel.num_threads = 3;
  ExpectIngestBitIdentical(tin, GetParam(), parallel, GetParam() + "/prefix",
                           tin.num_interactions() / 2);
}

TEST_P(ShardedIngestTest, HandBuiltTinMatches) {
  // 5 vertices, self-loop, deficit generation, two interactions per
  // broadcast chunk.
  ParallelParams parallel;
  parallel.num_threads = 3;
  parallel.num_shards = 3;
  parallel.stream_chunk = 2;
  ExpectIngestBitIdentical(HandTin(), GetParam(), parallel,
                           GetParam() + "/hand");
}

TEST_P(ShardedIngestTest, RepeatedRunsAreDeterministic) {
  // Thread scheduling varies between runs; results must not.
  const Tin tin = GeneratedTin();
  ParallelParams parallel;
  parallel.num_threads = 4;
  parallel.num_shards = 7;
  auto make_result = [&] {
    auto spec = TrackerRegistry::Global().Sharded(
        {GetParam(), TestParams(), TrackerMode::kStreaming}, tin.Stats());
    EXPECT_TRUE(spec.ok());
    ShardedIngestEngine engine(tin.Stats(), *std::move(spec), parallel);
    MaterializedStream stream(tin);
    return engine.IngestStream(stream);
  };
  auto first = make_result();
  auto second = make_result();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectSameTrackerState(*first->tracker, *second->tracker,
                         GetParam() + "/determinism");
}

TEST_P(ShardedIngestTest, EmptyStreamYieldsEmptyTracker) {
  const DatasetStats stats{12, 0};
  auto spec = TrackerRegistry::Global().Sharded(
      {GetParam(), TestParams(), TrackerMode::kStreaming}, stats);
  ASSERT_TRUE(spec.ok());
  ParallelParams parallel;
  parallel.num_threads = 4;
  ShardedIngestEngine engine(stats, *std::move(spec), parallel);
  VectorStream stream(12, {});
  auto result = engine.IngestStream(stream);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->tracker, nullptr);
  EXPECT_EQ(result->tracker->total_generated(), 0.0);
  EXPECT_EQ(result->stats.interactions, 0u);
  for (VertexId v = 0; v < 12; ++v) {
    EXPECT_EQ(result->tracker->BufferTotal(v), 0.0);
    EXPECT_TRUE(result->tracker->Provenance(v).entries.empty());
  }
}

TEST_P(ShardedIngestTest, RejectsOutOfOrderStream) {
  std::vector<Interaction> disordered;
  for (size_t i = 0; i < 200; ++i) {
    Interaction interaction;
    interaction.src = static_cast<VertexId>(i % 9);
    interaction.dst = static_cast<VertexId>((i + 4) % 9);
    interaction.t = static_cast<Timestamp>(i + 1);
    interaction.quantity = 1.0;
    disordered.push_back(interaction);
  }
  std::swap(disordered[50], disordered[150]);
  const DatasetStats stats{9, 200};
  auto spec = TrackerRegistry::Global().Sharded(
      {GetParam(), TestParams(), TrackerMode::kStreaming}, stats);
  ASSERT_TRUE(spec.ok());
  ParallelParams parallel;
  parallel.num_threads = 3;
  parallel.stream_chunk = 16;
  ShardedIngestEngine engine(stats, *std::move(spec), parallel);
  VectorStream stream(9, disordered);
  auto result = engine.IngestStream(stream);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(AllTrackerNames, ShardedIngestTest,
                         ::testing::ValuesIn(TrackerRegistry::Global().Names()),
                         SanitizeName);

// ---------------------------------------------------------------------
// (b) Layout: which arm runs, and the label-space clamps.

TEST(ShardedIngestEngineTest, SingleThreadFallsBackSequentially) {
  ParallelParams parallel;
  parallel.num_threads = 1;
  parallel.num_shards = 4;  // one worker: the sequential arm
  ExpectIngestBitIdentical(GeneratedTin(), "Prop-sparse", parallel,
                           "Prop-sparse/1-thread", kWholeLog,
                           /*layout_shards=*/false);
}

TEST(ShardedIngestEngineTest, ShardCountClampsToLabelSpace) {
  // Grouped labels live in [0, num_groups); asking for more shards than
  // labels must clamp, not leave empty shards (7 groups in TestParams).
  const Tin tin = GeneratedTin();
  ParallelParams parallel;
  parallel.num_threads = 4;
  parallel.num_shards = 16;
  auto spec = TrackerRegistry::Global().Sharded(
      {"Grouped", TestParams(), TrackerMode::kStreaming}, tin.Stats());
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->label_count, 7u);
  ExpectIngestBitIdentical(tin, "Grouped", parallel, "Grouped/clamped",
                           kWholeLog, true, 7);
}

// num_threads = 0 means nproc - 1 shard workers beside the producing
// thread; below two workers the engine reports the sequential arm.
TEST(ShardedIngestEngineTest, ZeroThreadsLeavesTheProducerACpu) {
  const size_t workers = std::max<size_t>(HardwareThreads(), 2) - 1;
  const DatasetStats stats{60, 0};
  auto spec = TrackerRegistry::Global().Sharded(
      {"Prop-sparse", TestParams(), TrackerMode::kStreaming}, stats);
  ASSERT_TRUE(spec.ok());
  const ShardedIngestEngine ingest(stats, *std::move(spec), ParallelParams{});
  EXPECT_EQ(ingest.ResolvedWorkers(), workers >= 2 ? workers : 0u);
  EXPECT_EQ(ingest.ResolvedShards(), workers >= 2 ? workers : 1u);
}

TEST(ShardedIngestEngineTest, SinkForcesSequentialFallback) {
  // A durability sink must observe batches after the tracker applied
  // them — that contract serializes, so the engine must not shard.
  class CountingSink : public BatchSink {
   public:
    Status OnBatch(const Interaction*, size_t count) override {
      interactions += count;
      ++batches;
      return Status::Ok();
    }
    size_t interactions = 0;
    size_t batches = 0;
  };

  const Tin tin = GeneratedTin();
  auto spec = TrackerRegistry::Global().Sharded(
      {"Prop-sparse", TestParams(), TrackerMode::kStreaming}, tin.Stats());
  ASSERT_TRUE(spec.ok());
  CountingSink sink;
  IngestOptions options;
  options.sink = &sink;
  ParallelParams parallel;
  parallel.num_threads = 4;
  ShardedIngestEngine engine(tin.Stats(), *std::move(spec), parallel,
                             options);
  MaterializedStream stream(tin);
  auto result = engine.IngestStream(stream);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->used_parallel_path);
  EXPECT_EQ(sink.interactions, tin.num_interactions());
  EXPECT_EQ(sink.batches, result->stats.batches);
}

TEST(ShardedIngestEngineTest, ShardInfoDealsLabelsRoundRobin) {
  const Tin tin = GeneratedTin();  // 60 vertices: 15 labels per shard
  auto spec = TrackerRegistry::Global().Sharded(
      {"Prop-sparse", TestParams(), TrackerMode::kStreaming}, tin.Stats());
  ASSERT_TRUE(spec.ok());
  ParallelParams parallel;
  parallel.num_threads = 4;
  parallel.num_shards = 4;
  ShardedIngestEngine engine(tin.Stats(), *std::move(spec), parallel);
  MaterializedStream stream(tin);
  auto result = engine.IngestStream(stream);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->used_parallel_path);
  ASSERT_EQ(result->shards.size(), 4u);
  size_t entries = 0;
  for (const ShardInfo& shard : result->shards) {
    EXPECT_EQ(shard.labels, 15u);
    entries += shard.entries;
  }
  // Shard slices are disjoint and together make every list.
  size_t merged = 0;
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    merged += result->tracker->Provenance(v).entries.size();
  }
  EXPECT_EQ(entries, merged);
}

// ---------------------------------------------------------------------
// (c) A wide exchange. 4,500 vertices are far more than the small
// TINs above, so an exchange that drops or repeats a vertex range shows
// up at every layout below, and a prefix ending inside a broadcast
// chunk checks the producer's last partial chunk.

Tin WideTin() {
  GeneratorConfig config;
  config.num_vertices = 4500;
  config.num_interactions = 12000;
  config.src_skew = 1.1;
  config.dst_skew = 0.9;
  config.quantity_model = QuantityModel::kLogNormal;
  config.quantity_param1 = 1.0;
  config.quantity_param2 = 1.0;
  config.self_loop_fraction = 0.05;
  config.seed = 43;
  auto tin = Generate(config);
  EXPECT_TRUE(tin.ok());
  return std::move(tin).value();
}

// (threads, num_shards)
class MultiWorkerExchangeTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(MultiWorkerExchangeTest, MatchesSequentialIngest) {
  const Tin tin = WideTin();
  const auto [threads, shards] = GetParam();
  const std::string context =
      "t" + std::to_string(threads) + "s" + std::to_string(shards);
  ParallelParams parallel;
  parallel.num_threads = threads;
  parallel.num_shards = shards;
  parallel.stream_chunk = 97;
  ExpectIngestBitIdentical(tin, "Prop-sparse", parallel, context + "/full",
                           kWholeLog, true, shards);
  ExpectIngestBitIdentical(tin, "Prop-sparse", parallel, context + "/prefix",
                           97 * 61 + 40, true, shards);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsByShards, MultiWorkerExchangeTest,
    ::testing::Values(std::make_tuple(size_t{2}, size_t{2}),
                      std::make_tuple(size_t{2}, size_t{5}),
                      std::make_tuple(size_t{3}, size_t{3}),
                      std::make_tuple(size_t{3}, size_t{5}),
                      std::make_tuple(size_t{4}, size_t{4}),
                      std::make_tuple(size_t{4}, size_t{5})),
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t>>& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "s" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// (d) Thread plumbing (scheduler.h).

TEST(SchedulerTest, HardwareThreadsIsPositive) {
  EXPECT_GE(HardwareThreads(), 1u);
}

TEST(SchedulerTest, ResidentPoolRunsInterlockedTasks) {
  // Two tasks that strictly alternate through atomics: only dedicated
  // threads (not a shared pool) can run these to completion.
  std::atomic<int> turn{0};
  std::atomic<int> handoffs{0};
  auto task = [&](int me) {
    for (int round = 0; round < 50; ++round) {
      while (turn.load(std::memory_order_acquire) != me) {
        std::this_thread::yield();
      }
      handoffs.fetch_add(1, std::memory_order_relaxed);
      turn.store(1 - me, std::memory_order_release);
    }
  };
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&] { task(0); });
  tasks.emplace_back([&] { task(1); });
  ResidentPool pool(std::move(tasks));
  pool.Join();
  EXPECT_EQ(handoffs.load(), 100);
}

}  // namespace
}  // namespace tinprov
