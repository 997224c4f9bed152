// Serving while ingesting: concurrent provenance queries against the
// epoch-snapshot service vs the stop-the-world alternative. Not a paper
// experiment — the paper replays offline — but the serve/ layer's
// reason to exist: reader threads answering Provenance(v) from pinned
// epochs while the writer ingests, with bounded staleness instead of a
// stopped pipeline.
//
// For each reader count the harness drives one full ingest of the
// Bitcoin preset stream and measures sustained ingest rate, query
// throughput, and query latency percentiles (p50/p99). Every Nth query
// result is captured with its epoch prefix and — after the drain —
// verified bit-identical against a fresh tracker replayed over exactly
// that prefix of the materialized log (GeneratorStream emits the same
// sequence Generate() materializes). Any mismatch fails the run:
// snapshot isolation is an exactness claim, not a best-effort one.
#include <algorithm>
#include <chrono>
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
#include "obs/recorder.h"
#include "serve/service.h"
#include "stream/interaction_stream.h"
#include "util/stopwatch.h"
#include "util/strings.h"

using namespace tinprov;

namespace {

struct Sample {
  size_t prefix = 0;
  VertexId v = 0;
  Buffer buffer;
};

struct ReaderLog {
  std::vector<int64_t> latencies_ns;
  std::vector<Sample> samples;
};

constexpr size_t kSampleEvery = 64;

// One reader: query rotating vertices until the ingest drains, logging
// per-query latency and capturing every kSampleEvery-th answer.
void ReaderLoop(const ProvenanceService& service, VertexId start,
                size_t num_vertices, ReaderLog* log) {
  VertexId v = start;
  size_t count = 0;
  while (!service.IngestDone()) {
    Stopwatch watch;
    const QueryResult result = service.Provenance(v);
    log->latencies_ns.push_back(watch.ElapsedNanos());
    if (!result.status.ok()) {
      std::fprintf(stderr, "reader query failed: %s\n",
                   result.status.ToString().c_str());
      std::exit(1);
    }
    if (count++ % kSampleEvery == 0) {
      log->samples.push_back({result.epoch.prefix, v, result.buffer});
    }
    v = (v + 13) % static_cast<VertexId>(num_vertices);
  }
}

int64_t Percentile(std::vector<int64_t>* sorted_ns, double p) {
  if (sorted_ns->empty()) return 0;
  const size_t index = std::min(
      sorted_ns->size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_ns->size())));
  return (*sorted_ns)[index];
}

// Stop-the-world verification of every captured sample: one reference
// tracker advanced prefix-by-prefix in sorted order.
void VerifySamples(const TrackerSpec& spec, const Tin& tin,
                   std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.prefix < b.prefix;
            });
  auto factory = TrackerRegistry::Global().Factory(spec, tin.Stats());
  if (!factory.ok()) {
    std::fprintf(stderr, "verify factory failed: %s\n",
                 factory.status().ToString().c_str());
    std::exit(1);
  }
  std::unique_ptr<Tracker> reference = (*factory)();
  const auto& log = tin.interactions();
  size_t applied = 0;
  for (const Sample& sample : samples) {
    if (sample.prefix > log.size()) {
      std::fprintf(stderr, "FAIL: epoch prefix %zu beyond the log (%zu)\n",
                   sample.prefix, log.size());
      std::exit(1);
    }
    while (applied < sample.prefix) {
      const Status status = reference->Process(log[applied++]);
      if (!status.ok()) {
        std::fprintf(stderr, "verify replay failed: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
    }
    const Buffer expected = reference->Provenance(sample.v);
    const bool same = expected.total == sample.buffer.total &&
                      expected.entries.size() == sample.buffer.entries.size() &&
                      std::equal(expected.entries.begin(),
                                 expected.entries.end(),
                                 sample.buffer.entries.begin());
    if (!same) {
      std::fprintf(stderr,
                   "FAIL: served answer diverged from stop-the-world replay "
                   "at prefix %zu vertex %u\n",
                   sample.prefix, sample.v);
      std::exit(1);
    }
  }
}

void WriteFileOrDie(const char* path, const std::string& contents) {
  FILE* file = std::fopen(path, "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fwrite(contents.data(), 1, contents.size(), file);
  std::fclose(file);
}

// Ops-plane smoke mode, driven by scripts/smoke.sh: with
// TINPROV_OPS_PORT set, stand up one service with its ops server
// enabled, publish the bound port to TINPROV_OPS_PORT_FILE, and keep
// executing queries until the driver drops "<port file>.done" (or
// TINPROV_OPS_HOLD_S elapses) so it can curl the live endpoints. The
// recorder's time series lands in TINPROV_RECORDER_OUT on the way out.
int RunOpsMode(const TrackerSpec& spec, const GeneratorConfig& config,
               ServeOptions options) {
  const char* port_env = std::getenv("TINPROV_OPS_PORT");
  const char* port_file = std::getenv("TINPROV_OPS_PORT_FILE");
  options.ops_recorder_interval_ms = 50;  // dense samples for a short hold
  options.slow_query_ns = 1;              // every query hits /tracez?slow=1
  double hold_s = 10.0;
  if (const char* hold = std::getenv("TINPROV_OPS_HOLD_S")) {
    hold_s = std::atof(hold);
  }

  auto stream = GeneratorStream::Create(config);
  if (!stream.ok()) {
    std::fprintf(stderr, "generator stream failed: %s\n",
                 stream.status().ToString().c_str());
    return 1;
  }
  auto service = ProvenanceService::Create(spec, stream->Stats(), options);
  if (!service.ok()) {
    std::fprintf(stderr, "service creation failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  Status status = (*service)->Start(
      std::make_unique<GeneratorStream>(*std::move(stream)));
  if (!status.ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.ToString().c_str());
    return 1;
  }
  auto port = (*service)->EnableOpsServer(
      static_cast<uint16_t>(std::atoi(port_env)));
  if (!port.ok()) {
    std::fprintf(stderr, "ops server failed: %s\n",
                 port.status().ToString().c_str());
    return 1;
  }
  std::printf("ops smoke: serving on 127.0.0.1:%u\n", *port);
  if (port_file != nullptr) {
    WriteFileOrDie(port_file, std::to_string(*port) + "\n");
  }

  // Keep the query-side counters and the slow-query ring moving while
  // the driver probes the endpoints.
  const std::string done_path =
      port_file != nullptr ? std::string(port_file) + ".done" : std::string();
  Stopwatch hold;
  VertexId v = 0;
  while (hold.ElapsedSeconds() < hold_s) {
    QueryRequest request;
    request.kind = QueryKind::kProvenance;
    request.v = v;
    (void)(*service)->Execute(request);
    v = (v + 13) % static_cast<VertexId>(config.num_vertices);
    if (!done_path.empty()) {
      if (FILE* done = std::fopen(done_path.c_str(), "r")) {
        std::fclose(done);
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  status = (*service)->WaitIngest();
  if (!status.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (const char* recorder_out = std::getenv("TINPROV_RECORDER_OUT")) {
    WriteFileOrDie(recorder_out,
                   (*service)->ops_recorder()->TimeSeriesJson());
  }
  (*service)->DisableOpsServer();
  std::printf("ops smoke: done after %.1fs\n", hold.ElapsedSeconds());
  return 0;
}

}  // namespace

int main() {
  const double scale = bench::GetScale();
  if (std::getenv("TINPROV_OPS_PORT") != nullptr) {
    return RunOpsMode({"Prop-sparse", ScalableParams{},
                       TrackerMode::kStreaming},
                      PresetConfig(DatasetKind::kBitcoin, scale),
                      ServeOptions{});
  }
  bench::PrintHeader("Serving under ingest",
                     "Snapshot-isolated queries vs a live writer "
                     "(Prop-sparse, epoch ring)");
  bench::JsonBenchReporter reporter("bench_serve");

  const GeneratorConfig config = PresetConfig(DatasetKind::kBitcoin, scale);
  const Tin tin = bench::MustMakeDataset(DatasetKind::kBitcoin, scale);
  const TrackerSpec spec{"Prop-sparse", ScalableParams{},
                         TrackerMode::kStreaming};
  const double rate_base = static_cast<double>(config.num_interactions);

  ServeOptions options;
  options.epoch_interval =
      std::max<size_t>(256, config.num_interactions / 32);
  options.ring_size = 4;

  std::printf("\nBitcoin network (%zu vertices, %zu interactions), epoch "
              "interval %zu:\n",
              config.num_vertices, config.num_interactions,
              options.epoch_interval);
  TablePrinter table({"readers", "ingest time", "ingest inter/s", "queries",
                      "queries/s", "query p50", "query p99", "epochs"});

  for (const size_t readers : {0, 1, 2, 4}) {
    auto stream = GeneratorStream::Create(config);
    if (!stream.ok()) {
      std::fprintf(stderr, "generator stream failed: %s\n",
                   stream.status().ToString().c_str());
      return 1;
    }
    auto service = ProvenanceService::Create(spec, tin.Stats(), options);
    if (!service.ok()) {
      std::fprintf(stderr, "service creation failed: %s\n",
                   service.status().ToString().c_str());
      return 1;
    }

    std::vector<ReaderLog> logs(std::max<size_t>(readers, 1));
    Stopwatch wall;
    Status status = (*service)->Start(
        std::make_unique<GeneratorStream>(*std::move(stream)));
    if (!status.ok()) {
      std::fprintf(stderr, "start failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::vector<std::thread> threads;
    for (size_t r = 0; r < readers; ++r) {
      threads.emplace_back(ReaderLoop, std::cref(**service),
                           static_cast<VertexId>(r), config.num_vertices,
                           &logs[r]);
    }
    for (std::thread& thread : threads) thread.join();
    status = (*service)->WaitIngest();
    const double ingest_seconds = wall.ElapsedSeconds();
    if (!status.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", status.ToString().c_str());
      return 1;
    }
    if (readers == 0) {
      // The zero-reader leg still proves the query path post-drain and
      // anchors the ingest-rate baseline the reader legs compare to.
      ReaderLog& log = logs[0];
      for (VertexId v = 0; v < config.num_vertices;
           v += std::max<VertexId>(1, config.num_vertices / 64)) {
        Stopwatch watch;
        const QueryResult result = (*service)->Provenance(v);
        log.latencies_ns.push_back(watch.ElapsedNanos());
        if (!result.status.ok()) return 1;
        log.samples.push_back({result.epoch.prefix, v, result.buffer});
      }
    }

    std::vector<int64_t> latencies;
    std::vector<Sample> samples;
    for (ReaderLog& log : logs) {
      latencies.insert(latencies.end(), log.latencies_ns.begin(),
                       log.latencies_ns.end());
      samples.insert(samples.end(),
                     std::make_move_iterator(log.samples.begin()),
                     std::make_move_iterator(log.samples.end()));
    }
    std::sort(latencies.begin(), latencies.end());
    const double p50 = static_cast<double>(Percentile(&latencies, 0.50)) / 1e9;
    const double p99 = static_cast<double>(Percentile(&latencies, 0.99)) / 1e9;
    const double ingest_rate = rate_base / std::max(ingest_seconds, 1e-12);
    const double query_rate = static_cast<double>(latencies.size()) /
                              std::max(ingest_seconds, 1e-12);
    const uint64_t epochs = (*service)->LatestEpoch().seq;

    table.AddRow({std::to_string(readers), FormatSeconds(ingest_seconds),
                  FormatCompact(ingest_rate, 2),
                  std::to_string(latencies.size()),
                  FormatCompact(query_rate, 2), FormatSeconds(p50),
                  FormatSeconds(p99), std::to_string(epochs)});

    VerifySamples(spec, tin, std::move(samples));

    const std::string row = "Bitcoin/Prop-sparse/r" + std::to_string(readers);
    reporter.Record(row + "/ingest", ingest_seconds, ingest_rate);
    if (!latencies.empty()) {
      reporter.Record(row + "/query_p50", p50);
      reporter.Record(row + "/query_p99", p99);
      reporter.Record(row + "/queries", ingest_seconds, query_rate);
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nEvery sampled answer was verified bit-identical to a fresh tracker "
      "replayed\nover exactly the answer's epoch prefix — snapshot isolation "
      "holds under\nconcurrent readers. Expected shape: aggregate queries/s "
      "grows with reader\ncount while ingest keeps making progress (readers "
      "never take a writer lock;\nany slowdown is core contention from the "
      "closed-loop readers, not blocking).\n");
  return 0;
}
