// Streaming-layer semantics: the pull-based pipeline must be
// indistinguishable from materialized replay. ProcessStream and
// StreamIngestor are checked bit-exactly against ProcessAll for every
// factory name; GeneratorStream against the materializing generator for
// every Table-6 preset; SortingStream across its reorder-window edge
// cases (empty stream, window smaller than the disorder, the exact
// boundary); and the sharded engine's ReplayStream against
// materialized Replay().
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analytics/experiment.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "parallel/sharded_replay.h"
#include "policies/proportional_sparse.h"
#include "policies/tracker.h"
#include "stream/ingest.h"
#include "stream/interaction_stream.h"

namespace tinprov {
namespace {

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
// and Windowed resets fire within the generated stream.
ScalableParams TestParams() {
  ScalableParams params;
  params.window = 500;
  params.num_tracked = 10;
  params.num_groups = 7;
  params.budget.capacity = 8;
  params.budget.keep_fraction = 0.5;
  return params;
}

// Bit-exact comparison: streaming promises the *identical* result, not
// an approximation, so no tolerance anywhere.
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

void ExpectSameTracker(const Tracker& expected, const Tracker& actual,
                       const std::string& context) {
  EXPECT_EQ(expected.total_generated(), actual.total_generated()) << context;
  for (VertexId v = 0; v < expected.num_vertices(); ++v) {
    EXPECT_EQ(expected.BufferTotal(v), actual.BufferTotal(v))
        << context << " vertex " << v;
    ExpectSameBuffer(expected.Provenance(v), actual.Provenance(v),
                     context + " vertex " + std::to_string(v));
  }
}

bool NotAlnum(char c) { return !std::isalnum(static_cast<unsigned char>(c)); }

std::string SanitizeName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  name.erase(std::remove_if(name.begin(), name.end(), NotAlnum), name.end());
  return name;
}

// A sorted toy stream with distinct timestamps, for the SortingStream
// and ingestor edge cases.
std::vector<Interaction> SortedToy(size_t count) {
  std::vector<Interaction> log;
  for (size_t i = 0; i < count; ++i) {
    Interaction interaction;
    interaction.src = static_cast<VertexId>(i % 5);
    interaction.dst = static_cast<VertexId>((i + 2) % 5);
    interaction.t = static_cast<Timestamp>(i + 1);
    interaction.quantity = 1.0 + static_cast<double>(i % 3);
    log.push_back(interaction);
  }
  return log;
}

std::vector<Interaction> Drain(InteractionStream& stream) {
  std::vector<Interaction> out;
  Interaction interaction;
  while (stream.Next(&interaction)) out.push_back(interaction);
  return out;
}

// ---------------------------------------------------------------------
// (a) Streaming replay is bit-identical to materialized replay for
// every factory name — ProcessStream directly and through the
// micro-batched StreamIngestor.

class StreamingVsMaterializedTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(StreamingVsMaterializedTest, BitIdenticalToProcessAll) {
  const Tin tin = GeneratedTin();
  const ScalableParams params = TestParams();
  auto factory = TrackerRegistry::Global().Factory({GetParam(), params}, tin);
  ASSERT_TRUE(factory.ok()) << factory.status().ToString();

  std::unique_ptr<Tracker> eager = (*factory)();
  ASSERT_TRUE(eager->ProcessAll(tin).ok());

  std::unique_ptr<Tracker> streamed = (*factory)();
  MaterializedStream direct(tin);
  ASSERT_TRUE(streamed->ProcessStream(direct).ok());
  ExpectSameTracker(*eager, *streamed, GetParam() + "/ProcessStream");

  std::unique_ptr<Tracker> ingested = (*factory)();
  IngestOptions options;
  options.batch_size = 257;  // deliberately not a divisor of the length
  StreamIngestor ingestor(ingested.get(), options);
  MaterializedStream batched(tin);
  ASSERT_TRUE(ingestor.IngestAll(batched).ok());
  ExpectSameTracker(*eager, *ingested, GetParam() + "/StreamIngestor");

  const IngestStats& stats = ingestor.stats();
  EXPECT_EQ(stats.interactions, tin.num_interactions());
  EXPECT_EQ(stats.batches,
            (tin.num_interactions() + options.batch_size - 1) /
                options.batch_size);
  EXPECT_LE(stats.peak_batch, options.batch_size);
  EXPECT_EQ(stats.watermark, tin.interactions().back().t);
}

INSTANTIATE_TEST_SUITE_P(AllNames, StreamingVsMaterializedTest,
                         ::testing::ValuesIn(TrackerRegistry::Global().Names()),
                         SanitizeName);

// ---------------------------------------------------------------------
// (b) GeneratorStream emits exactly what the materializing generator
// puts into a Tin, preset by preset.

class GeneratorStreamPresetTest
    : public ::testing::TestWithParam<DatasetKind> {};

TEST_P(GeneratorStreamPresetTest, MatchesMaterializedGenerator) {
  const double scale = 0.05;  // clamped to >= 200 interactions per preset
  const GeneratorConfig config = PresetConfig(GetParam(), scale);
  auto tin = MakeDataset(GetParam(), scale);
  ASSERT_TRUE(tin.ok());

  auto stream = GeneratorStream::Create(config);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(stream->Stats().num_vertices, config.num_vertices);
  EXPECT_EQ(stream->Stats().num_interactions, config.num_interactions);

  const std::vector<Interaction> emitted = Drain(*stream);
  const auto& log = tin->interactions();
  ASSERT_EQ(emitted.size(), log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(emitted[i].src, log[i].src) << "interaction " << i;
    EXPECT_EQ(emitted[i].dst, log[i].dst) << "interaction " << i;
    EXPECT_EQ(emitted[i].t, log[i].t) << "interaction " << i;
    EXPECT_EQ(emitted[i].quantity, log[i].quantity) << "interaction " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, GeneratorStreamPresetTest,
    ::testing::ValuesIn(AllDatasets()),
    [](const ::testing::TestParamInfo<DatasetKind>& info) {
      return std::string(DatasetName(info.param));
    });

TEST(GeneratorStreamTest, RejectsInvalidConfig) {
  GeneratorConfig config;  // num_vertices == 0
  auto stream = GeneratorStream::Create(config);
  EXPECT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
}

TEST(GeneratorStreamTest, DrivesTrackerEndToEnd) {
  const double scale = 0.05;
  const DatasetKind kind = DatasetKind::kTaxis;
  auto tin = MakeDataset(kind, scale);
  ASSERT_TRUE(tin.ok());
  ProportionalSparseTracker eager(tin->num_vertices());
  ASSERT_TRUE(eager.ProcessAll(*tin).ok());

  auto stream = GeneratorStream::Create(PresetConfig(kind, scale));
  ASSERT_TRUE(stream.ok());
  ProportionalSparseTracker streamed(tin->num_vertices());
  ASSERT_TRUE(streamed.ProcessStream(*stream).ok());
  ExpectSameTracker(eager, streamed, "GeneratorStream/Prop-sparse");
}

// ---------------------------------------------------------------------
// (c) SortingStream edge cases.

TEST(SortingStreamTest, EmptyStream) {
  for (const size_t window : {size_t{0}, size_t{3}, size_t{1000}}) {
    SortingStream stream(std::make_unique<VectorStream>(4, SortedToy(0)),
                         window);
    Interaction interaction;
    EXPECT_FALSE(stream.Next(&interaction)) << "window " << window;
    EXPECT_FALSE(stream.Next(&interaction)) << "window " << window;
  }
}

TEST(SortingStreamTest, WindowZeroPassesThrough) {
  std::vector<Interaction> shuffled = SortedToy(10);
  std::swap(shuffled[2], shuffled[7]);
  SortingStream stream(std::make_unique<VectorStream>(5, shuffled), 0);
  const std::vector<Interaction> out = Drain(stream);
  ASSERT_EQ(out.size(), shuffled.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].t, shuffled[i].t) << "position " << i;
  }
}

TEST(SortingStreamTest, ExactWindowBoundary) {
  // The earliest element arrives exactly `displacement` positions late:
  // a window of that size restores the order, one less cannot.
  const size_t displacement = 5;
  std::vector<Interaction> sorted = SortedToy(20);
  std::vector<Interaction> late = sorted;
  std::rotate(late.begin(), late.begin() + 1,
              late.begin() + displacement + 1);  // sorted[0] now at index 5

  SortingStream enough(std::make_unique<VectorStream>(5, late), displacement);
  const std::vector<Interaction> repaired = Drain(enough);
  ASSERT_EQ(repaired.size(), sorted.size());
  for (size_t i = 0; i < repaired.size(); ++i) {
    EXPECT_EQ(repaired[i].t, sorted[i].t) << "position " << i;
  }

  SortingStream short_by_one(std::make_unique<VectorStream>(5, late),
                             displacement - 1);
  const std::vector<Interaction> degraded = Drain(short_by_one);
  ASSERT_EQ(degraded.size(), sorted.size());
  // Best-effort: the late element misses its slot (the first emit
  // happens before it is pulled), but nothing is lost.
  EXPECT_NE(degraded[0].t, sorted[0].t);
  EXPECT_EQ(degraded[1].t, sorted[0].t);
}

TEST(SortingStreamTest, WindowCoveringWholeStreamFullySorts) {
  std::vector<Interaction> reversed = SortedToy(12);
  std::reverse(reversed.begin(), reversed.end());
  SortingStream stream(std::make_unique<VectorStream>(5, reversed), 100);
  const std::vector<Interaction> out = Drain(stream);
  ASSERT_EQ(out.size(), reversed.size());
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].t, out[i].t) << "position " << i;
  }
}

TEST(SortingStreamTest, EqualTimestampsKeepArrivalOrder) {
  std::vector<Interaction> ties = SortedToy(8);
  for (auto& interaction : ties) interaction.t = 1.0;
  SortingStream stream(std::make_unique<VectorStream>(5, ties), 3);
  const std::vector<Interaction> out = Drain(stream);
  ASSERT_EQ(out.size(), ties.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].quantity, ties[i].quantity) << "position " << i;
  }
}

TEST(SortingStreamTest, StatsPassThrough) {
  SortingStream stream(std::make_unique<VectorStream>(7, SortedToy(9)), 4);
  EXPECT_EQ(stream.Stats().num_vertices, 7u);
  EXPECT_EQ(stream.Stats().num_interactions, 9u);
}

// ---------------------------------------------------------------------
// (d) StreamIngestor contract: order enforcement and the stats-free
// ReserveHint pre-sizing path.

TEST(StreamIngestorTest, RejectsOutOfOrderInput) {
  std::vector<Interaction> disordered = SortedToy(10);
  std::swap(disordered[3], disordered[8]);
  ProportionalSparseTracker tracker(5);
  StreamIngestor ingestor(&tracker);
  VectorStream stream(5, disordered);
  const Status status = ingestor.IngestAll(stream);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("SortingStream"), std::string::npos);
  // The diagnostic pinpoints the offense: which batch, and both the
  // offending timestamp and the watermark it fell below. After the
  // swap the stream runs 1,2,3,9,5,... — interaction t=5 violates
  // watermark 9 inside the first batch.
  EXPECT_NE(status.message().find("batch 0"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find(std::to_string(Timestamp{5})),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find(std::to_string(Timestamp{9})),
            std::string::npos)
      << status.message();
}

TEST(StreamIngestorTest, SortingStreamRepairsDisorderedIngest) {
  std::vector<Interaction> disordered = SortedToy(40);
  std::swap(disordered[3], disordered[8]);
  std::swap(disordered[20], disordered[24]);

  // The Tin constructor sorts, so it is the materialized reference for
  // what repaired streaming ingestion must reproduce.
  Tin tin(5, disordered);
  ProportionalSparseTracker eager(5);
  ASSERT_TRUE(eager.ProcessAll(tin).ok());

  ProportionalSparseTracker streamed(5);
  StreamIngestor ingestor(&streamed);
  SortingStream repaired(std::make_unique<VectorStream>(5, disordered), 8);
  ASSERT_TRUE(ingestor.IngestAll(repaired).ok());
  ExpectSameTracker(eager, streamed, "SortingStream+ingest");
}

// The ingestor must pre-size from the stream's advertised shape even
// when the stream then yields nothing — that is the Tin-free
// ReserveHint path doing its job before the first batch.
class AdvertisingEmptyStream : public InteractionStream {
 public:
  bool Next(Interaction*) override { return false; }
  DatasetStats Stats() const override { return {100, 5000}; }
};

TEST(StreamIngestorTest, ReservesFromAdvertisedStats) {
  ProportionalSparseTracker tracker(100);
  EXPECT_EQ(tracker.PoolBytesReserved(), 0u);
  StreamIngestor ingestor(&tracker);
  AdvertisingEmptyStream stream;
  ASSERT_TRUE(ingestor.IngestAll(stream).ok());
  EXPECT_GT(tracker.PoolBytesReserved(), 0u);
  EXPECT_EQ(ingestor.stats().interactions, 0u);
  EXPECT_EQ(ingestor.stats().batches, 0u);
}

TEST(ReserveHintTest, TinFormRoutesThroughStats) {
  const Tin tin = GeneratedTin();
  ProportionalSparseTracker via_tin(tin.num_vertices());
  ProportionalSparseTracker via_stats(tin.num_vertices());
  via_tin.ReserveHint(tin);
  via_stats.ReserveHint(tin.Stats());
  EXPECT_GT(via_tin.PoolBytesReserved(), 0u);
  EXPECT_EQ(via_tin.PoolBytesReserved(), via_stats.PoolBytesReserved());

  // Unknown stream length reserves nothing; the arena grows on demand.
  ProportionalSparseTracker unknown(tin.num_vertices());
  unknown.ReserveHint(DatasetStats{tin.num_vertices(), 0});
  EXPECT_EQ(unknown.PoolBytesReserved(), 0u);
}

// ---------------------------------------------------------------------
// (e) Sharded streaming replay == sharded materialized replay.

void ExpectSameResult(const ShardedReplayResult& expected,
                      const ShardedReplayResult& actual,
                      const std::string& context) {
  EXPECT_EQ(expected.total_generated, actual.total_generated) << context;
  EXPECT_EQ(expected.num_entries, actual.num_entries) << context;
  ASSERT_EQ(expected.num_vertices, actual.num_vertices) << context;
  EXPECT_EQ(expected.interactions_replayed, actual.interactions_replayed)
      << context;
  for (VertexId v = 0; v < expected.num_vertices; ++v) {
    EXPECT_EQ(expected.totals[v], actual.totals[v])
        << context << " vertex " << v;
    ASSERT_EQ(expected.entries[v].size(), actual.entries[v].size())
        << context << " vertex " << v;
    for (size_t i = 0; i < expected.entries[v].size(); ++i) {
      EXPECT_TRUE(expected.entries[v][i] == actual.entries[v][i])
          << context << " vertex " << v << " entry " << i;
    }
  }
}

class ShardedStreamTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedStreamTest, StreamingMatchesMaterializedSharded) {
  const Tin tin = GeneratedTin();
  const ScalableParams params = TestParams();
  // One spec for both engines: the streaming form must reproduce the
  // materialized engine bit-for-bit when fed the identical sequence.
  auto spec = TrackerRegistry::Global().Sharded(
      {GetParam(), params, TrackerMode::kStreaming}, tin.Stats());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  ParallelParams parallel;
  parallel.num_threads = 3;
  parallel.num_shards = 5;
  parallel.stream_chunk = 97;  // forces many partial chunks
  parallel.stream_queue_chunks = 2;

  ShardedReplayEngine materialized(tin, *spec, parallel);
  auto expected = materialized.Replay();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  ShardedReplayEngine streaming(tin.Stats(), *spec, parallel);
  MaterializedStream stream(tin);
  auto actual = streaming.ReplayStream(stream);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(expected->used_parallel_path, actual->used_parallel_path);
  ExpectSameResult(*expected, *actual, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Decomposable, ShardedStreamTest,
                         ::testing::Values("Prop-sparse", "Windowed",
                                           "Selective", "Grouped"),
                         SanitizeName);

TEST(ShardedStreamTest, HonorsLogFreeStrategies) {
  // kHash and kContiguous need no log, so the Tin-free engine must
  // apply them (only kActivity falls back to round-robin): shard label
  // loads have to match the materialized engine's exactly.
  const Tin tin = GeneratedTin();
  const ScalableParams params = TestParams();
  auto spec = TrackerRegistry::Global().Sharded(
      {"Prop-sparse", params, TrackerMode::kStreaming}, tin.Stats());
  ASSERT_TRUE(spec.ok());
  for (const ShardStrategy strategy :
       {ShardStrategy::kHash, ShardStrategy::kContiguous}) {
    ParallelParams parallel;
    parallel.num_threads = 2;
    parallel.num_shards = 4;
    parallel.strategy = strategy;

    ShardedReplayEngine materialized(tin, *spec, parallel);
    auto expected = materialized.Replay();
    ASSERT_TRUE(expected.ok());

    ShardedReplayEngine streaming(tin.Stats(), *spec, parallel);
    MaterializedStream stream(tin);
    auto actual = streaming.ReplayStream(stream);
    ASSERT_TRUE(actual.ok());
    ASSERT_EQ(expected->shards.size(), actual->shards.size());
    for (size_t s = 0; s < expected->shards.size(); ++s) {
      EXPECT_EQ(expected->shards[s].labels, actual->shards[s].labels)
          << "strategy " << static_cast<int>(strategy) << " shard " << s;
      EXPECT_EQ(expected->shards[s].entries, actual->shards[s].entries)
          << "strategy " << static_cast<int>(strategy) << " shard " << s;
    }
    ExpectSameResult(*expected, *actual,
                     "strategy " + std::to_string(static_cast<int>(strategy)));
  }
}

TEST(ShardedStreamTest, SequentialFallbackMatchesEager) {
  const Tin tin = GeneratedTin();
  const ScalableParams params = TestParams();
  auto spec = TrackerRegistry::Global().Sharded(
      {"FIFO", params, TrackerMode::kStreaming}, tin.Stats());
  ASSERT_TRUE(spec.ok());
  ASSERT_FALSE(spec->decomposable);

  ShardedReplayEngine engine(tin.Stats(), *spec, ParallelParams{});
  MaterializedStream stream(tin);
  auto result = engine.ReplayStream(stream);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->used_parallel_path);

  auto eager = CreateTracker(PolicyKind::kFifo, tin.num_vertices());
  ASSERT_TRUE(eager->ProcessAll(tin).ok());
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    ExpectSameBuffer(eager->Provenance(v), result->Provenance(v),
                     "FIFO fallback vertex " + std::to_string(v));
  }
}

TEST(ShardedStreamTest, SingleWorkerInlinePathMatches) {
  const Tin tin = GeneratedTin();
  const ScalableParams params = TestParams();
  auto spec = TrackerRegistry::Global().Sharded(
      {"Prop-sparse", params, TrackerMode::kStreaming}, tin.Stats());
  ASSERT_TRUE(spec.ok());

  ParallelParams parallel;
  parallel.num_threads = 1;  // forces the no-queue inline broadcast
  parallel.num_shards = 4;
  parallel.stream_chunk = 64;

  ShardedReplayEngine materialized(tin, *spec, parallel);
  auto expected = materialized.Replay();
  ASSERT_TRUE(expected.ok());

  ShardedReplayEngine streaming(tin.Stats(), *spec, parallel);
  MaterializedStream stream(tin);
  auto actual = streaming.ReplayStream(stream);
  ASSERT_TRUE(actual.ok());
  ExpectSameResult(*expected, *actual, "inline path");
}

TEST(ShardedStreamTest, StreamingEngineRejectsMaterializedEntryPoints) {
  const Tin tin = GeneratedTin();
  auto spec = TrackerRegistry::Global().Sharded(
      {"Prop-sparse", TestParams(), TrackerMode::kStreaming}, tin.Stats());
  ASSERT_TRUE(spec.ok());
  ShardedReplayEngine engine(tin.Stats(), *spec, ParallelParams{});
  EXPECT_EQ(engine.Replay().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.ReplayPrefix(10).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.QueryPrefix(0, 10).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardedStreamTest, RejectsOutOfOrderStream) {
  std::vector<Interaction> disordered = SortedToy(50);
  std::swap(disordered[10], disordered[30]);
  auto spec = TrackerRegistry::Global().Sharded(
      {"Prop-sparse", TestParams(), TrackerMode::kStreaming},
      DatasetStats{5, 50});
  ASSERT_TRUE(spec.ok());
  for (const size_t threads : {size_t{1}, size_t{3}}) {
    ParallelParams parallel;
    parallel.num_threads = threads;
    parallel.num_shards = 3;
    parallel.stream_chunk = 8;
    ShardedReplayEngine engine(DatasetStats{5, 50}, *spec, parallel);
    VectorStream stream(5, disordered);
    const auto result = engine.ReplayStream(stream);
    ASSERT_FALSE(result.ok()) << "threads " << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------
// (f) Streaming analytics entry points.

TEST(StreamAnalyticsTest, StreamFactoryRejectsUnknownNames) {
  auto factory = TrackerRegistry::Global().Factory(
      {"No-such", TestParams(), TrackerMode::kStreaming},
      DatasetStats{10, 100});
  ASSERT_FALSE(factory.ok());
  EXPECT_EQ(factory.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(factory.status().message().find("Prop-sparse"),
            std::string::npos);
}

TEST(StreamAnalyticsTest, MeasureTrackerStreamingPath) {
  const GeneratorConfig config = PresetConfig(DatasetKind::kFlights, 0.05);
  auto stream = GeneratorStream::Create(config);
  ASSERT_TRUE(stream.ok());
  IngestStats stats;
  MeasureOptions options;
  options.stream = &*stream;
  options.ingest_stats = &stats;
  auto measurement = MeasureTracker(
      {"Prop-sparse", TestParams(), TrackerMode::kStreaming}, options);
  ASSERT_TRUE(measurement.ok()) << measurement.status().ToString();
  EXPECT_TRUE(measurement->feasible);
  EXPECT_EQ(stats.interactions, config.num_interactions);
  EXPECT_GT(measurement->peak_memory, 0u);
}

TEST(StreamAnalyticsTest, DenseFeasibilityGateAppliesToStreams) {
  const GeneratorConfig config = PresetConfig(DatasetKind::kBitcoin, 0.05);
  auto stream = GeneratorStream::Create(config);
  ASSERT_TRUE(stream.ok());
  MeasureOptions options;
  options.stream = &*stream;
  options.dense_memory_limit = 1024;
  auto measurement = MeasureTracker(
      {"Prop-dense", TestParams(), TrackerMode::kStreaming}, options);
  ASSERT_TRUE(measurement.ok());
  EXPECT_FALSE(measurement->feasible);
}

}  // namespace
}  // namespace tinprov
