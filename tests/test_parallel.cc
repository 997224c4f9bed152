// Parallel-replay semantics: sharded replay must be indistinguishable —
// bit for bit — from sequential replay, for every factory-constructible
// tracker, every shard strategy, and the degenerate shapes (one thread,
// more threads than shards, more shards than labels, empty datasets).
// The equality harness mirrors tests/test_lazy.cc: no tolerances
// anywhere, the parallel engine promises the identical result.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/experiment.h"
#include "datagen/generator.h"
#include "lazy/replay.h"
#include "parallel/scheduler.h"
#include "parallel/sharded_ingest.h"
#include "parallel/sharded_replay.h"
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

// Replays `tin` sequentially through the named tracker and checks the
// sharded result against it, vertex by vertex.
void ExpectBitIdentical(const Tin& tin, const std::string& name,
                        const ParallelParams& parallel,
                        const std::string& context) {
  const ScalableParams params = TestParams();
  auto eager = TrackerRegistry::Global().Create({name, params}, tin);
  ASSERT_TRUE(eager.ok()) << context;
  ASSERT_TRUE((*eager)->ProcessAll(tin).ok()) << context;

  auto spec = TrackerRegistry::Global().Sharded({name, params}, tin);
  ASSERT_TRUE(spec.ok()) << context;
  ShardedReplayEngine engine(tin, *std::move(spec), parallel);
  auto result = engine.Replay();
  ASSERT_TRUE(result.ok()) << context << ": " << result.status().ToString();

  EXPECT_EQ((*eager)->total_generated(), result->total_generated) << context;
  EXPECT_EQ(result->interactions_replayed, tin.num_interactions()) << context;
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    ExpectSameBuffer((*eager)->Provenance(v), result->Provenance(v),
                     context + " vertex " + std::to_string(v));
    EXPECT_EQ((*eager)->BufferTotal(v), result->BufferTotal(v)) << context;
  }
}

bool NotAlnum(char c) { return !std::isalnum(static_cast<unsigned char>(c)); }

std::string SanitizeName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  name.erase(std::remove_if(name.begin(), name.end(), NotAlnum), name.end());
  return name;
}

// ---------------------------------------------------------------------
// (a) Sharded replay is bit-identical to sequential replay for every
// factory name, across shard strategies and thread/shard shapes.

class ShardedReplayTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedReplayTest, FourShardsMatchSequentialBitExactly) {
  const Tin tin = GeneratedTin();
  for (const ShardStrategy strategy :
       {ShardStrategy::kRoundRobin, ShardStrategy::kHash,
        ShardStrategy::kContiguous, ShardStrategy::kActivity}) {
    ParallelParams parallel;
    parallel.num_threads = 4;
    parallel.num_shards = 4;
    parallel.strategy = strategy;
    ExpectBitIdentical(tin, GetParam(), parallel,
                       GetParam() + "/strategy" +
                           std::to_string(static_cast<int>(strategy)));
  }
}

TEST_P(ShardedReplayTest, OneThreadManyShardsMatches) {
  // One worker draining five shards exercises the sharding and exchange
  // logic with zero scheduling nondeterminism.
  ParallelParams parallel;
  parallel.num_threads = 1;
  parallel.num_shards = 5;
  ExpectBitIdentical(GeneratedTin(), GetParam(), parallel,
                     GetParam() + "/1-thread");
}

TEST_P(ShardedReplayTest, MoreThreadsThanShardsMatches) {
  ParallelParams parallel;
  parallel.num_threads = 8;
  parallel.num_shards = 2;
  ExpectBitIdentical(GeneratedTin(), GetParam(), parallel,
                     GetParam() + "/8-threads-2-shards");
}

TEST_P(ShardedReplayTest, EmptyDatasetYieldsEmptyState) {
  const Tin tin(5, {});
  ParallelParams parallel;
  parallel.num_threads = 4;
  auto spec =
      TrackerRegistry::Global().Sharded({GetParam(), TestParams()}, tin);
  ASSERT_TRUE(spec.ok());
  ShardedReplayEngine engine(tin, *std::move(spec), parallel);
  auto result = engine.Replay();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_generated, 0.0);
  EXPECT_EQ(result->num_entries, 0u);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(result->BufferTotal(v), 0.0);
    EXPECT_TRUE(result->Provenance(v).entries.empty());
  }
}

TEST_P(ShardedReplayTest, PrefixReplayMatchesSequentialPrefix) {
  const Tin tin = GeneratedTin();
  const ScalableParams params = TestParams();
  const size_t prefix = tin.num_interactions() / 2;

  auto factory = TrackerRegistry::Global().Factory({GetParam(), params}, tin);
  ASSERT_TRUE(factory.ok());
  std::unique_ptr<Tracker> eager = (*factory)();
  const auto& log = tin.interactions();
  for (size_t i = 0; i < prefix; ++i) {
    ASSERT_TRUE(eager->Process(log[i]).ok());
  }

  ParallelParams parallel;
  parallel.num_threads = 3;
  auto spec = TrackerRegistry::Global().Sharded({GetParam(), params}, tin);
  ASSERT_TRUE(spec.ok());
  ShardedReplayEngine engine(tin, *std::move(spec), parallel);
  auto result = engine.ReplayPrefix(prefix);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->interactions_replayed, prefix);
  EXPECT_EQ(eager->total_generated(), result->total_generated);
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    ExpectSameBuffer(eager->Provenance(v), result->Provenance(v),
                     GetParam() + "/prefix vertex " + std::to_string(v));
  }
}

TEST_P(ShardedReplayTest, RepeatedRunsAreDeterministic) {
  // Thread scheduling varies between runs; results must not.
  const Tin tin = GeneratedTin();
  ParallelParams parallel;
  parallel.num_threads = 4;
  parallel.num_shards = 7;
  auto spec =
      TrackerRegistry::Global().Sharded({GetParam(), TestParams()}, tin);
  ASSERT_TRUE(spec.ok());
  ShardedReplayEngine engine(tin, *std::move(spec), parallel);
  auto first = engine.Replay();
  auto second = engine.Replay();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->total_generated, second->total_generated);
  EXPECT_EQ(first->num_entries, second->num_entries);
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    ExpectSameBuffer(first->Provenance(v), second->Provenance(v),
                     GetParam() + "/determinism vertex " + std::to_string(v));
  }
}

INSTANTIATE_TEST_SUITE_P(AllTrackerNames, ShardedReplayTest,
                         ::testing::ValuesIn(TrackerRegistry::Global().Names()),
                         SanitizeName);

// ---------------------------------------------------------------------
// (b) Engine mechanics: which path runs, and the label-space clamps.

TEST(ShardedReplayEngineTest, DecomposableNamesTakeTheParallelPath) {
  const Tin tin = GeneratedTin();
  ParallelParams parallel;
  parallel.num_threads = 4;
  for (const char* name : {"Prop-sparse", "Selective", "Grouped",
                           "Windowed"}) {
    auto spec = TrackerRegistry::Global().Sharded({name, TestParams()}, tin);
    ASSERT_TRUE(spec.ok());
    EXPECT_TRUE(spec->decomposable) << name;
    ShardedReplayEngine engine(tin, *std::move(spec), parallel);
    auto result = engine.Replay();
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->used_parallel_path) << name;
    EXPECT_GT(result->num_shards, 1u) << name;
    EXPECT_EQ(result->shards.size(), result->num_shards) << name;
  }
}

TEST(ShardedReplayEngineTest, NonDecomposableNamesFallBackSequentially) {
  const Tin tin = GeneratedTin();
  ParallelParams parallel;
  parallel.num_threads = 4;
  for (const char* name :
       {"NoProv", "LIFO", "FIFO", "LRB", "MRB", "Prop-dense", "Budget"}) {
    auto spec = TrackerRegistry::Global().Sharded({name, TestParams()}, tin);
    ASSERT_TRUE(spec.ok());
    EXPECT_FALSE(spec->decomposable) << name;
    ShardedReplayEngine engine(tin, *std::move(spec), parallel);
    auto result = engine.Replay();
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_FALSE(result->used_parallel_path) << name;
    EXPECT_EQ(result->num_shards, 1u) << name;
  }
}

TEST(ShardedReplayEngineTest, ShardCountClampsToLabelSpace) {
  // Grouped labels live in [0, num_groups); asking for more shards than
  // labels must clamp, not leave empty shards (7 groups in TestParams).
  const Tin tin = GeneratedTin();
  ParallelParams parallel;
  parallel.num_threads = 4;
  parallel.num_shards = 16;
  auto spec =
      TrackerRegistry::Global().Sharded({"Grouped", TestParams()}, tin);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->label_count, 7u);
  ShardedReplayEngine engine(tin, *std::move(spec), parallel);
  auto result = engine.Replay();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_shards, 7u);
  ExpectBitIdentical(tin, "Grouped", parallel, "Grouped/clamped");
}

TEST(ShardedReplayEngineTest, HandBuiltTinAcrossShardCounts) {
  const Tin tin = HandTin();
  for (size_t shards = 1; shards <= 5; ++shards) {
    ParallelParams parallel;
    parallel.num_threads = 2;
    parallel.num_shards = shards;
    ExpectBitIdentical(tin, "Prop-sparse", parallel,
                       "hand/shards" + std::to_string(shards));
  }
}

TEST(ShardedReplayEngineTest, AssignLabelsCoversEveryLabelOnce) {
  const Tin tin = GeneratedTin();
  for (const ShardStrategy strategy :
       {ShardStrategy::kRoundRobin, ShardStrategy::kHash,
        ShardStrategy::kContiguous, ShardStrategy::kActivity}) {
    const auto groups = ShardedReplayEngine::AssignLabels(
        tin, strategy, tin.num_vertices(), 4);
    ASSERT_EQ(groups.size(), tin.num_vertices());
    for (const GroupId g : groups) EXPECT_LT(g, 4u);
  }
}

// ---------------------------------------------------------------------
// (c) Wiring: the lazy engine's parallel mode and the measurement
// harness return the same answers as their sequential counterparts.

TEST(ParallelWiringTest, LazyEngineParallelMatchesSequential) {
  const Tin tin = GeneratedTin();
  const ScalableParams params = TestParams();
  for (const char* name : {"Prop-sparse", "Grouped", "LIFO"}) {
    auto factory = TrackerRegistry::Global().Factory({name, params}, tin);
    ASSERT_TRUE(factory.ok());
    LazyReplayEngine sequential(tin, *factory);
    LazyReplayEngine parallel_engine(tin, *factory);
    auto spec = TrackerRegistry::Global().Sharded({name, params}, tin);
    ASSERT_TRUE(spec.ok());
    ParallelParams parallel;
    parallel.num_threads = 4;
    parallel_engine.EnableParallel(*std::move(spec), parallel);

    const VertexId v = 3;
    auto expected_full = sequential.Provenance(v);
    auto actual_full = parallel_engine.Provenance(v);
    ASSERT_TRUE(expected_full.ok());
    ASSERT_TRUE(actual_full.ok());
    ExpectSameBuffer(*expected_full, *actual_full,
                     std::string(name) + "/lazy-full");

    const Timestamp t = tin.interactions()[tin.num_interactions() / 3].t;
    auto expected_prefix = sequential.Provenance(v, t);
    auto actual_prefix = parallel_engine.Provenance(v, t);
    ASSERT_TRUE(expected_prefix.ok());
    ASSERT_TRUE(actual_prefix.ok());
    ExpectSameBuffer(*expected_prefix, *actual_prefix,
                     std::string(name) + "/lazy-prefix");
  }
}

TEST(ParallelWiringTest, MeasureTrackerParallelOptionRuns) {
  const Tin tin = GeneratedTin();
  const ScalableParams params = TestParams();
  MeasureOptions options;
  options.tin = &tin;
  options.parallel = true;
  options.parallel_params.num_threads = 2;

  auto sharded = MeasureTracker({"Prop-sparse", params}, options);
  ASSERT_TRUE(sharded.ok());
  EXPECT_TRUE(sharded->feasible);
  EXPECT_TRUE(sharded->parallel);
  EXPECT_GT(sharded->peak_memory, 0u);

  // Non-decomposable names silently measure on the classic path.
  auto fallback = MeasureTracker({"LIFO", params}, options);
  ASSERT_TRUE(fallback.ok());
  EXPECT_FALSE(fallback->parallel);

  // The final logical memory must agree with the sequential tracker's.
  auto eager = TrackerRegistry::Global().Create({"Prop-sparse", params}, tin);
  ASSERT_TRUE(eager.ok());
  ASSERT_TRUE((*eager)->ProcessAll(tin).ok());
  EXPECT_EQ(sharded->peak_memory, (*eager)->MemoryUsage());
}

// ---------------------------------------------------------------------
// (d) ShardedIngestEngine (label-sharded replay into the result
// tracker) == sequential StreamIngestor, bit for bit, for every
// decomposable registry tracker.

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
}

// Ingests `tin`'s log as a stream through both paths — sequential
// StreamIngestor on spec.sequential(), and the sharded engine — and
// requires bit-identical trackers (SaveState bytes included) plus
// matching ingest stats, and `expect_shards` label shards when nonzero.
void ExpectIngestBitIdentical(const Tin& tin, const std::string& name,
                              const ParallelParams& parallel,
                              const std::string& context,
                              bool expect_parallel_path = true,
                              size_t expect_shards = 0) {
  const ScalableParams params = TestParams();
  auto spec = TrackerRegistry::Global().Sharded(
      {name, params, TrackerMode::kStreaming}, tin.Stats());
  ASSERT_TRUE(spec.ok()) << context << ": " << spec.status().ToString();

  std::unique_ptr<Tracker> reference = spec->sequential();
  IngestOptions options;
  options.batch_size = 257;  // deliberately not a divisor of the length
  StreamIngestor ingestor(reference.get(), options);
  MaterializedStream reference_stream(tin);
  ASSERT_TRUE(ingestor.IngestAll(reference_stream).ok()) << context;

  ShardedIngestEngine engine(tin.Stats(), *std::move(spec), parallel,
                             options);
  MaterializedStream stream(tin);
  auto result = engine.IngestStream(stream);
  ASSERT_TRUE(result.ok()) << context << ": " << result.status().ToString();
  EXPECT_EQ(result->used_parallel_path, expect_parallel_path) << context;

  ExpectSameTrackerState(*reference, *result->tracker, context);
  std::vector<uint8_t> expected_state, actual_state;
  reference->SaveState(&expected_state);
  result->tracker->SaveState(&actual_state);
  EXPECT_TRUE(expected_state == actual_state)
      << context << ": SaveState bytes differ";
  EXPECT_EQ(result->stats.interactions, ingestor.stats().interactions)
      << context;
  EXPECT_EQ(result->stats.watermark, ingestor.stats().watermark) << context;
  if (expect_shards != 0) {
    EXPECT_EQ(result->num_shards, expect_shards) << context;
  }
}

class ShardedIngestTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedIngestTest, FourShardsMatchSequentialBitExactly) {
  ParallelParams parallel;
  parallel.num_threads = 4;
  parallel.num_shards = 4;
  parallel.stream_chunk = 97;  // forces many partial chunks
  parallel.stream_queue_chunks = 2;
  ExpectIngestBitIdentical(GeneratedTin(), GetParam(), parallel,
                           GetParam() + "/ingest-4-shards");
}

TEST_P(ShardedIngestTest, ShardCountSweepMatches) {
  const Tin tin = GeneratedTin();
  for (const size_t shards : {size_t{2}, size_t{3}, size_t{7}}) {
    ParallelParams parallel;
    parallel.num_threads = shards;  // one worker per shard
    parallel.num_shards = shards;
    ExpectIngestBitIdentical(tin, GetParam(), parallel,
                             GetParam() + "/ingest-shards" +
                                 std::to_string(shards));
  }
  // More label shards than workers: each worker feeds several shards.
  ParallelParams parallel;
  parallel.num_threads = 2;
  parallel.num_shards = 5;
  ExpectIngestBitIdentical(tin, GetParam(), parallel,
                           GetParam() + "/ingest-2-workers-5-shards",
                           /*expect_parallel_path=*/true,
                           /*expect_shards=*/5);
}

TEST_P(ShardedIngestTest, HandBuiltTinMatches) {
  // 5 vertices, self-loop, deficit generation, two interactions per
  // broadcast chunk.
  ParallelParams parallel;
  parallel.num_threads = 3;
  parallel.num_shards = 3;
  parallel.stream_chunk = 2;
  ExpectIngestBitIdentical(HandTin(), GetParam(), parallel,
                           GetParam() + "/ingest-hand");
}

TEST_P(ShardedIngestTest, RepeatedRunsAreDeterministic) {
  const Tin tin = GeneratedTin();
  ParallelParams parallel;
  parallel.num_threads = 4;
  parallel.num_shards = 4;
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
                         GetParam() + "/ingest-determinism");
}

INSTANTIATE_TEST_SUITE_P(DecomposableNames, ShardedIngestTest,
                         ::testing::Values("Prop-sparse", "Windowed",
                                           "Selective", "Grouped"),
                         SanitizeName);

TEST(ShardedIngestEngineTest, NonDecomposableNamesFallBackSequentially) {
  const Tin tin = GeneratedTin();
  ParallelParams parallel;
  parallel.num_threads = 4;
  for (const char* name : {"NoProv", "LIFO", "FIFO", "Budget"}) {
    ExpectIngestBitIdentical(tin, name, parallel,
                             std::string(name) + "/ingest-fallback",
                             /*expect_parallel_path=*/false);
  }
}

TEST(ShardedIngestEngineTest, SingleThreadFallsBackSequentially) {
  ParallelParams parallel;
  parallel.num_threads = 1;
  parallel.num_shards = 4;  // one worker: the sequential arm
  ExpectIngestBitIdentical(GeneratedTin(), "Prop-sparse", parallel,
                           "Prop-sparse/ingest-1-thread",
                           /*expect_parallel_path=*/false);
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

TEST(ShardedIngestEngineTest, ParallelPathRejectsOutOfOrderStream) {
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
  auto spec = TrackerRegistry::Global().Sharded(
      {"Prop-sparse", TestParams(), TrackerMode::kStreaming},
      DatasetStats{9, 200});
  ASSERT_TRUE(spec.ok());
  ParallelParams parallel;
  parallel.num_threads = 3;
  parallel.stream_chunk = 16;
  ShardedIngestEngine engine(DatasetStats{9, 200}, *std::move(spec),
                             parallel);
  EXPECT_TRUE(engine.ResolvedShards() > 1);
  VectorStream stream(9, disordered);
  auto result = engine.IngestStream(stream);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedIngestEngineTest, EmptyStreamYieldsEmptyTracker) {
  auto spec = TrackerRegistry::Global().Sharded(
      {"Prop-sparse", TestParams(), TrackerMode::kStreaming},
      DatasetStats{12, 0});
  ASSERT_TRUE(spec.ok());
  ParallelParams parallel;
  parallel.num_threads = 4;
  ShardedIngestEngine engine(DatasetStats{12, 0}, *std::move(spec),
                             parallel);
  VectorStream stream(12, {});
  auto result = engine.IngestStream(stream);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->tracker, nullptr);
  EXPECT_EQ(result->tracker->total_generated(), 0.0);
  EXPECT_EQ(result->stats.interactions, 0u);
  for (VertexId v = 0; v < 12; ++v) {
    EXPECT_TRUE(result->tracker->Provenance(v).entries.empty());
  }
}

TEST(ShardedIngestEngineTest, ShardInfoAccountsEveryVertexOnce) {
  const Tin tin = GeneratedTin();
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
  ASSERT_EQ(result->shards.size(), result->num_shards);
  size_t vertices = 0;
  for (const ShardInfo& shard : result->shards) vertices += shard.labels;
  EXPECT_EQ(vertices, tin.num_vertices());
}

// ---------------------------------------------------------------------
// (e) Work-stealing scheduler unit tests.

TEST(SchedulerTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
    for (const size_t count :
         {size_t{0}, size_t{1}, size_t{3}, size_t{64}, size_t{1000}}) {
      WorkStealingScheduler scheduler(threads);
      EXPECT_EQ(scheduler.num_threads(), threads);
      std::vector<std::atomic<int>> hits(count);
      for (auto& h : hits) h.store(0);
      scheduler.ParallelFor(count, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "threads=" << threads << " count=" << count << " i=" << i;
      }
    }
  }
}

TEST(SchedulerTest, TasksStatAccumulatesAcrossCalls) {
  WorkStealingScheduler scheduler(2);
  scheduler.ParallelFor(10, [](size_t) {});
  scheduler.ParallelFor(5, [](size_t) {});
  EXPECT_EQ(scheduler.stats().tasks, 15u);
}

TEST(SchedulerTest, SingleThreadInlinePathNeverSteals) {
  WorkStealingScheduler scheduler(1);
  std::atomic<size_t> sum{0};
  scheduler.ParallelFor(100, [&](size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950u);
  EXPECT_EQ(scheduler.stats().tasks, 100u);
  EXPECT_EQ(scheduler.stats().steals, 0u);
}

TEST(SchedulerTest, SkewedBodiesStillCoverEverything) {
  // A few indices are much slower than the rest; with more than one
  // worker the fast workers drain their deques and steal. Coverage must
  // hold regardless of how the steal races resolve.
  WorkStealingScheduler scheduler(4);
  const size_t count = 200;
  std::vector<std::atomic<int>> hits(count);
  for (auto& h : hits) h.store(0);
  scheduler.ParallelFor(count, [&](size_t i) {
    if (i < 4) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
  }
  EXPECT_EQ(scheduler.stats().tasks, count);
}

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
