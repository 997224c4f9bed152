// Parallel label-sharded pro-rata replay AND ingest throughput versus
// thread count on the Table 6 presets. Not a paper experiment — the
// paper's Section 8 names parallel provenance tracking as future work;
// this harness measures the repo's realization of it: label-sharded
// replay over a materialized log (src/parallel/sharded_replay.h) and
// the bulk load of a stream into one full tracker that
// ProvenanceService::Catchup runs (ShardedIngestEngine,
// src/parallel/sharded_ingest.h: label-sharded streaming replay into
// the result tracker). Both are bit-identical to their sequential
// counterparts by construction (tests/test_parallel.cc); the ingest
// sweep also checks it here, comparing every row's SaveState bytes
// with the sequential t1 row's, and exits 1 on a mismatch.
//
// Expected shape: the list-heavy networks (many interactions per
// vertex, long provenance lists) scale best, because every shard still
// scans the whole stream and only the superlinear list work divides by
// the shard count. Sparse networks with short lists are scan-bound and
// gain little — the replicated scan is the Amdahl floor.
//
// The sweep is clamped to std::thread::hardware_concurrency() so the
// recorded JSON reflects real parallelism; TINPROV_THREADS overrides
// the cap, and rows beyond the hardware width are annotated as
// oversubscribed (they exercise the scheduler, not the machine).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/experiment.h"
#include "analytics/report.h"
#include "bench_util.h"
#include "parallel/sharded_ingest.h"
#include "parallel/sharded_replay.h"
#include "stream/interaction_stream.h"
#include "util/memory.h"
#include "util/strings.h"

using namespace tinprov;

namespace {

size_t HardwareWidth() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// Sweep cap: the hardware width unless TINPROV_THREADS asks for more
// (or less) explicitly.
size_t MaxThreads() {
  const char* env = std::getenv("TINPROV_THREADS");
  if (env != nullptr) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return HardwareWidth();
}

// 1, 2, 4, ... up to `cap`, always ending at `cap` itself.
std::vector<size_t> ThreadSweep(size_t cap) {
  std::vector<size_t> sweep = {1};
  for (size_t t = 2; t < cap; t *= 2) sweep.push_back(t);
  if (cap > 1) sweep.push_back(cap);
  return sweep;
}

// "4" on a wide-enough machine, "4*" when the row oversubscribes it.
std::string ThreadLabel(size_t threads) {
  std::string label = std::to_string(threads);
  if (threads > HardwareWidth()) label += "*";
  return label;
}

// JSON row names carry the annotation too, so a baseline recorded with
// an oversubscribed sweep can never masquerade as a scaling result.
std::string JsonSuffix(size_t threads) {
  std::string suffix = "/t" + std::to_string(threads);
  if (threads > HardwareWidth()) suffix += "/oversub";
  return suffix;
}

}  // namespace

int main() {
  const double scale = bench::GetScale();
  bench::PrintHeader("Parallel replay + ingest",
                     "Sharded pro-rata throughput vs threads");
  bench::JsonBenchReporter reporter("bench_parallel");

  const std::vector<size_t> thread_counts = ThreadSweep(MaxThreads());
  std::printf("hardware_concurrency = %zu%s\n\n", HardwareWidth(),
              MaxThreads() > HardwareWidth()
                  ? "  (* rows oversubscribe: scheduler exercise, not "
                    "speedup)"
                  : "");

  const ScalableParams params;  // defaults; Prop-sparse ignores them
  for (const DatasetKind dataset :
       {DatasetKind::kFlights, DatasetKind::kTaxis, DatasetKind::kProsper}) {
    const Tin tin = bench::MustMakeDataset(dataset, scale);
    const std::string dataset_name(DatasetName(dataset));
    std::printf("%s network (%zu vertices, %zu interactions):\n",
                dataset_name.c_str(), tin.num_vertices(),
                tin.num_interactions());

    // --- Label-sharded replay sweep --------------------------------
    TablePrinter replay_table({"threads", "time", "speedup", "inter/s",
                               "memory", "path"});
    double replay_baseline = 0.0;
    for (const size_t threads : thread_counts) {
      MeasureOptions options;
      options.tin = &tin;
      options.dense_memory_limit = bench::kDenseMemoryLimit;
      options.parallel = true;
      options.parallel_params.num_threads = threads;
      auto m = MeasureTracker({"Prop-sparse", params}, options);
      if (!m.ok()) {
        std::fprintf(stderr, "replay measurement failed: %s\n",
                     m.status().ToString().c_str());
        return 1;
      }
      if (threads == 1) replay_baseline = m->seconds;
      const double rate =
          m->seconds > 0.0
              ? static_cast<double>(tin.num_interactions()) / m->seconds
              : 0.0;
      std::string speedup = "-";
      if (m->seconds > 0.0) {
        speedup = FormatCompact(replay_baseline / m->seconds, 2) + "x";
      }
      replay_table.AddRow({ThreadLabel(threads), FormatSeconds(m->seconds),
                           speedup, FormatCompact(rate, 2),
                           FormatBytes(m->peak_memory),
                           m->parallel ? "sharded" : "sequential"});
      reporter.Record(
          dataset_name + "/Prop-sparse/replay" + JsonSuffix(threads),
          m->seconds, rate, m->peak_memory);
    }
    std::printf("replay (label-sharded):\n%s\n",
                replay_table.ToString().c_str());

    // --- Label-sharded ingest sweep --------------------------------
    // Same stream each round; the engine runs a sequential
    // StreamIngestor at one worker, so t1 is the honest baseline and its
    // SaveState bytes the reference every other row must reproduce.
    TablePrinter ingest_table({"threads", "time", "speedup", "inter/s",
                               "memory", "path"});
    double ingest_baseline = 0.0;
    std::vector<uint8_t> baseline_state;
    for (const size_t threads : thread_counts) {
      auto spec = TrackerRegistry::Global().Sharded(
          {"Prop-sparse", params, TrackerMode::kStreaming}, tin.Stats());
      if (!spec.ok()) {
        std::fprintf(stderr, "ingest spec failed: %s\n",
                     spec.status().ToString().c_str());
        return 1;
      }
      ParallelParams parallel;
      parallel.num_threads = threads;
      ShardedIngestEngine engine(tin.Stats(), *std::move(spec), parallel);
      MaterializedStream stream(tin);
      auto result = engine.IngestStream(stream);
      if (!result.ok()) {
        std::fprintf(stderr, "ingest measurement failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      std::vector<uint8_t> state;
      result->tracker->SaveState(&state);
      if (threads == 1) {
        baseline_state = std::move(state);
      } else if (state != baseline_state) {
        std::fprintf(stderr,
                     "%s ingest at %zu threads: SaveState bytes differ "
                     "from the sequential row's\n",
                     dataset_name.c_str(), threads);
        return 1;
      }
      const double seconds = result->stats.seconds;
      if (threads == 1) ingest_baseline = seconds;
      const double rate =
          seconds > 0.0
              ? static_cast<double>(tin.num_interactions()) / seconds
              : 0.0;
      std::string speedup = "-";
      if (seconds > 0.0) {
        speedup = FormatCompact(ingest_baseline / seconds, 2) + "x";
      }
      ingest_table.AddRow(
          {ThreadLabel(threads), FormatSeconds(seconds), speedup,
           FormatCompact(rate, 2),
           FormatBytes(result->stats.tracker_peak_memory),
           result->used_parallel_path
               ? std::to_string(result->num_shards) + " label shards"
               : "sequential"});
      reporter.Record(
          dataset_name + "/Prop-sparse/ingest" + JsonSuffix(threads),
          seconds, rate, result->stats.tracker_peak_memory);
    }
    std::printf("ingest (label-sharded):\n%s\n",
                ingest_table.ToString().c_str());
  }
  std::printf(
      "Expected shape: list-heavy networks (Flights, Taxis) scale best; "
      "every shard\nscans the whole stream, so sparse short-list networks "
      "gain less. Replay and\ningest are bit-identical to their "
      "sequential counterparts at any thread count\n(tests/test_parallel.cc "
      "proves it; the ingest rows were checked above).\n");
  return 0;
}
