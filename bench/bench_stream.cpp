// Streaming ingestion: materialized-log replay vs the pull-based
// stream pipeline. Not a paper experiment — the paper replays
// materialized logs — but its setting is interactions *arriving* in
// time order, and this harness measures what the stream/ layer buys:
// the same provenance results (bit-identical; tests/test_stream.cc)
// with no materialized log anywhere in the pipeline, so ingestion-side
// memory is a constant micro-batch buffer instead of the whole stream.
//
// Three paths per dataset, all Prop-sparse:
//   materialized       generate a Tin, then MeasureTracker over it
//   streaming          GeneratorStream -> StreamIngestor (micro-batches)
//   streaming+sharded  GeneratorStream -> ShardedIngestEngine::IngestStream
//                      (bounded broadcast queue to label shards;
//                      sequential arm on machines of 2 CPUs or fewer,
//                      which resolve to one worker beside the producer)
//
// The run fails (non-zero exit) if the sharded row's tracker differs
// from the streaming row's in a single SaveState byte, or if the
// streaming pipeline's peak buffering is not independent of the stream
// length — the acceptance bar for streaming ingestion.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analytics/experiment.h"
#include "analytics/report.h"
#include "bench_util.h"
#include "parallel/sharded_ingest.h"
#include "stream/ingest.h"
#include "stream/interaction_stream.h"
#include "util/memory.h"
#include "util/stopwatch.h"
#include "util/strings.h"

using namespace tinprov;

namespace {

GeneratorStream MustMakeStream(const GeneratorConfig& config) {
  auto stream = GeneratorStream::Create(config);
  if (!stream.ok()) {
    std::fprintf(stderr, "generator stream failed: %s\n",
                 stream.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(stream);
}

}  // namespace

int main() {
  const double scale = bench::GetScale();
  bench::PrintHeader("Streaming ingestion",
                     "Materialized replay vs pull-based stream pipeline "
                     "(Prop-sparse)");
  bench::JsonBenchReporter reporter("bench_stream");
  const ScalableParams params;

  for (const DatasetKind dataset :
       {DatasetKind::kBitcoin, DatasetKind::kCtu, DatasetKind::kFlights}) {
    const GeneratorConfig config = PresetConfig(dataset, scale);
    const std::string name(DatasetName(dataset));
    const double rate_base = static_cast<double>(config.num_interactions);

    // Materialized: the log is generated, held whole, then replayed.
    Stopwatch watch;
    const Tin tin = bench::MustMakeDataset(dataset, scale);
    const double generate_seconds = watch.ElapsedSeconds();
    MeasureOptions materialized_options;
    materialized_options.tin = &tin;
    materialized_options.dense_memory_limit = bench::kDenseMemoryLimit;
    auto materialized =
        MeasureTracker({"Prop-sparse", params}, materialized_options);
    if (!materialized.ok()) {
      std::fprintf(stderr, "materialized measurement failed: %s\n",
                   materialized.status().ToString().c_str());
      return 1;
    }

    // Streaming: interactions flow straight from the generator into the
    // tracker; the only stream-side buffer is the micro-batch. Its
    // tracker is the reference the sharded row must reproduce.
    const TrackerSpec spec{"Prop-sparse", params, TrackerMode::kStreaming};
    const DatasetStats stats{config.num_vertices, config.num_interactions};
    auto reference = TrackerRegistry::Global().Create(spec, stats);
    if (!reference.ok()) {
      std::fprintf(stderr, "tracker failed: %s\n",
                   reference.status().ToString().c_str());
      return 1;
    }
    GeneratorStream stream = MustMakeStream(config);
    IngestStats ingest;
    auto streaming =
        MeasureStreamRun(reference->get(), stream, spec.name, &ingest);
    if (!streaming.ok()) {
      std::fprintf(stderr, "streaming measurement failed: %s\n",
                   streaming.status().ToString().c_str());
      return 1;
    }

    // Streaming + sharded: the same stream fanned out to label shards
    // through the bounded broadcast queue.
    auto sharded_spec = TrackerRegistry::Global().Sharded(spec, stats);
    if (!sharded_spec.ok()) {
      std::fprintf(stderr, "spec failed: %s\n",
                   sharded_spec.status().ToString().c_str());
      return 1;
    }
    ParallelParams parallel;  // nproc - 1 workers, one shard each
    ShardedIngestEngine engine(stats, *std::move(sharded_spec), parallel);
    GeneratorStream sharded_stream = MustMakeStream(config);
    auto sharded = engine.IngestStream(sharded_stream);
    if (!sharded.ok()) {
      std::fprintf(stderr, "sharded streaming ingest failed: %s\n",
                   sharded.status().ToString().c_str());
      return 1;
    }
    std::vector<uint8_t> expected_state, sharded_state;
    (*reference)->SaveState(&expected_state);
    sharded->tracker->SaveState(&sharded_state);
    if (sharded_state != expected_state) {
      std::fprintf(stderr,
                   "FAIL: %s sharded ingest: SaveState bytes differ from "
                   "the streaming row's\n",
                   name.c_str());
      return 1;
    }
    const double sharded_seconds = sharded->stats.seconds;

    std::printf("\n%s network (%zu vertices, %zu interactions):\n",
                name.c_str(), config.num_vertices, config.num_interactions);
    TablePrinter table({"path", "ingest time", "inter/s", "pipeline buffer",
                        "tracker memory", "notes"});
    const size_t log_bytes = tin.MemoryUsage();
    table.AddRow(
        {"materialized", FormatSeconds(materialized->seconds),
         FormatCompact(rate_base / std::max(materialized->seconds, 1e-12), 2),
         FormatBytes(log_bytes), FormatBytes(materialized->peak_memory),
         "log held whole; +" + FormatSeconds(generate_seconds) + " generate"});
    table.AddRow(
        {"streaming", FormatSeconds(streaming->seconds),
         FormatCompact(rate_base / std::max(streaming->seconds, 1e-12), 2),
         FormatBytes(ingest.peak_batch * sizeof(Interaction)),
         FormatBytes(streaming->peak_memory),
         std::to_string(ingest.batches) + " batches, watermark-checked"});
    // Annotate rows whose workers plus the producing thread exceed the
    // machine width — on a small host they measure threading, not
    // parallel speedup.
    const unsigned hw = std::thread::hardware_concurrency();
    const bool oversubscribed =
        hw != 0 && sharded->num_threads + 1 > static_cast<size_t>(hw);
    const size_t sharded_buffer =
        sharded->used_parallel_path
            ? (parallel.stream_queue_chunks + sharded->num_threads) *
                  parallel.stream_chunk
            : sharded->stats.peak_batch;
    table.AddRow(
        {"streaming+sharded", FormatSeconds(sharded_seconds),
         FormatCompact(rate_base / std::max(sharded_seconds, 1e-12), 2),
         FormatBytes(sharded_buffer * sizeof(Interaction)),
         FormatBytes(sharded->stats.tracker_peak_memory),
         sharded->used_parallel_path
             ? std::to_string(sharded->num_shards) + " shards / " +
                   std::to_string(sharded->num_threads) + " threads" +
                   (oversubscribed ? " (oversubscribed)" : "")
             : "sequential fallback (1 worker)"});
    std::printf("%s", table.ToString().c_str());

    reporter.Record(name + "/Prop-sparse/materialized",
                    materialized->seconds,
                    rate_base / std::max(materialized->seconds, 1e-12),
                    materialized->peak_memory);
    reporter.Record(name + "/Prop-sparse/streaming", streaming->seconds,
                    rate_base / std::max(streaming->seconds, 1e-12),
                    streaming->peak_memory);
    reporter.Record(name + "/Prop-sparse/streaming_sharded", sharded_seconds,
                    rate_base / std::max(sharded_seconds, 1e-12),
                    sharded->stats.tracker_peak_memory);
  }

  // Acceptance check: streaming-side buffering must be independent of
  // the stream length. Run the same preset at 1x and 4x interactions
  // and require the identical peak batch buffer (the ingest stats are
  // the witness — a materialized path would scale 4x here).
  {
    GeneratorConfig config = PresetConfig(DatasetKind::kTaxis, scale);
    // A batch both runs fill (presets are clamped to >= 200
    // interactions), so the peak is the batch size, not the stream.
    IngestOptions options;
    options.batch_size = 64;
    size_t peaks[2] = {0, 0};
    for (int round = 0; round < 2; ++round) {
      if (round == 1) config.num_interactions *= 4;
      GeneratorStream stream = MustMakeStream(config);
      auto factory = TrackerRegistry::Global().Factory(
          {"Prop-sparse", params, TrackerMode::kStreaming},
          DatasetStats{config.num_vertices, config.num_interactions});
      if (!factory.ok()) {
        std::fprintf(stderr, "flatness factory failed: %s\n",
                     factory.status().ToString().c_str());
        return 1;
      }
      std::unique_ptr<Tracker> tracker = (*factory)();
      StreamIngestor ingestor(tracker.get(), options);
      const Status status = ingestor.IngestAll(stream);
      if (!status.ok()) {
        std::fprintf(stderr, "flatness run failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      peaks[round] = ingestor.stats().peak_batch;
    }
    std::printf("\npipeline buffering: %zu interactions peak at 1x, %zu at "
                "4x stream length\n",
                peaks[0], peaks[1]);
    if (peaks[1] != peaks[0]) {
      std::fprintf(stderr,
                   "FAIL: streaming peak buffering grew with stream length "
                   "(%zu -> %zu)\n",
                   peaks[0], peaks[1]);
      return 1;
    }
  }

  std::printf(
      "\nExpected shape: streaming matches materialized replay throughput "
      "(same\nper-interaction work, no log materialization) while its "
      "pipeline buffer stays\na constant micro-batch; sharded streaming "
      "adds the parallel list-work split\non multi-core machines. Results "
      "are bit-identical on every path\n(tests/test_stream.cc and "
      "tests/test_parallel.cc prove it; the sharded rows\nwere checked "
      "above).\n");
  return 0;
}
