// Label-sharded pro-rata ingest throughput versus thread count on the
// Table 6 presets. Not a paper experiment — the paper's Section 8 names
// parallel provenance tracking as future work; this harness measures
// the repo's realization of it: the bulk load of a stream into one full
// tracker that ProvenanceService::Catchup runs (ShardedIngestEngine,
// src/parallel/sharded_ingest.h: label-sharded streaming replay into
// the result tracker). It is bit-identical to a sequential ingest by
// construction (tests/test_parallel.cc), and the sweep also checks it
// here, comparing every row's SaveState bytes with the sequential t1
// row's, and exits 1 on a mismatch.
//
// Expected shape: the list-heavy networks (many interactions per
// vertex, long provenance lists) scale best, because every shard still
// scans the whole stream and only the superlinear list work divides by
// the shard count. Sparse networks with short lists are scan-bound and
// gain little — the replicated scan is the Amdahl floor.
//
// A row's thread count is its shard workers; every sharded row also
// runs a producing thread that pulls the input and broadcasts it to
// them. The sweep is capped at std::thread::hardware_concurrency() - 1
// workers so the recorded JSON reflects real parallelism;
// TINPROV_THREADS overrides the cap, and rows whose workers plus the
// producer exceed the hardware width are annotated as oversubscribed
// (they exercise the threading, not the machine).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/registry.h"
#include "analytics/report.h"
#include "bench_util.h"
#include "parallel/sharded_ingest.h"
#include "stream/interaction_stream.h"
#include "util/memory.h"
#include "util/strings.h"

using namespace tinprov;

namespace {

size_t HardwareWidth() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// Sweep cap: one worker fewer than the hardware width (the producer
// takes a CPU), at least 1, unless TINPROV_THREADS asks for more (or
// less) explicitly.
size_t MaxThreads() {
  const char* env = std::getenv("TINPROV_THREADS");
  if (env != nullptr) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return std::max<size_t>(HardwareWidth(), 2) - 1;
}

// True when `workers` plus the producing thread exceed the machine.
bool Oversubscribed(size_t workers) { return workers + 1 > HardwareWidth(); }

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
  if (Oversubscribed(threads)) label += "*";
  return label;
}

// JSON row names carry the annotation too, so a baseline recorded with
// an oversubscribed sweep can never masquerade as a scaling result.
std::string JsonSuffix(size_t threads) {
  std::string suffix = "/t" + std::to_string(threads);
  if (Oversubscribed(threads)) suffix += "/oversub";
  return suffix;
}

}  // namespace

int main() {
  const double scale = bench::GetScale();
  bench::PrintHeader("Parallel ingest",
                     "Label-sharded pro-rata ingest throughput vs threads");
  bench::JsonBenchReporter reporter("bench_parallel");

  const std::vector<size_t> thread_counts = ThreadSweep(MaxThreads());
  std::printf("hardware_concurrency = %zu%s\n\n", HardwareWidth(),
              Oversubscribed(MaxThreads())
                  ? "  (* rows oversubscribe with the producer: threading "
                    "exercise, not speedup)"
                  : "");

  const ScalableParams params;  // defaults; Prop-sparse ignores them
  for (const DatasetKind dataset :
       {DatasetKind::kFlights, DatasetKind::kTaxis, DatasetKind::kProsper}) {
    const Tin tin = bench::MustMakeDataset(dataset, scale);
    const std::string dataset_name(DatasetName(dataset));
    std::printf("%s network (%zu vertices, %zu interactions):\n",
                dataset_name.c_str(), tin.num_vertices(),
                tin.num_interactions());

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
      "gain less. Ingest is\nbit-identical to its sequential counterpart "
      "at any thread count\n(tests/test_parallel.cc proves it; the rows "
      "were checked above).\n");
  return 0;
}
