#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "obs/metrics.h"
#include "parallel/sharded_ingest.h"
#include "storage/durable_log.h"
#include "storage/env.h"
#include "storage/recovery.h"
#include "stream/ingest.h"

namespace perfbench {

using tinprov::ProvenanceService;
using tinprov::QueryResult;
using tinprov::Status;

tinprov::ServeOptions ServedOptions(const std::string& durable_dir) {
  tinprov::ServeOptions options;
  options.durability.dir = durable_dir;
  return options;
}

namespace {

QueryResult Ask(const ProvenanceService& service, const Query& query) {
  return query.top ? service.TopOrigins(query.v, kTopK)
                   : service.Provenance(query.v);
}

}  // namespace

ServePass RunServePass(const Input& input, const ServePassOptions& options,
                       Ledger* ledger) {
  ServePass pass;
  if (!options.durable_dir.empty()) RemoveTree(options.durable_dir);
  const tinprov::DatasetStats stats{input.tin.num_vertices(), options.prefix};
  const int64_t setup_start = NowNs();
  auto created = [&] {
    Span span("serve.create");
    return ProvenanceService::Create(options.spec, stats,
                                     ServedOptions(options.durable_dir));
  }();
  pass.setup_s = Seconds(NowNs() - setup_start);
  if (!created.ok()) {
    ledger->Fail("serve create: " + created.status().ToString());
    return pass;
  }
  pass.service = *std::move(created);
  ProvenanceService& service = *pass.service;

  auto owned =
      std::make_unique<TimedStream>(input.tin, options.prefix, options.reader);
  const TimedStream& pulls = *owned;  // the service owns it until destroyed
  Status status;
  {
    Span ingest("serve.ingest");
    const int64_t start = NowNs();
    status = service.Start(std::move(owned));
    std::thread reader;
    if (status.ok() && options.reader) {
      reader = std::thread([&] {
        // A root span: the reader runs beside the ingest, not inside it.
        Span loop("serve.reader_loop");
        uint64_t seen = 0;
        size_t i = 0;
        while (!service.IngestDone()) {
          const tinprov::EpochInfo epoch = service.LatestEpoch();
          if (epoch.seq != seen && epoch.prefix > 0) {
            pass.lag_ms.push_back(
                static_cast<double>(NowNs() - pulls.PulledAt(epoch.prefix - 1)) *
                1e-6);
            seen = epoch.seq;
          }
          const Query& query = (*options.mix)[i % options.mix->size()];
          QueryResult result;
          const int64_t t0 = NowNs();
          {
            Span span("serve.query");
            result = Ask(service, query);
          }
          // Each reader query is timed alone: a block's mean would mix in
          // the FIFO hubs' long deques, whose share per block varies far
          // more than single latencies do. Answers from the empty
          // pre-ingest epoch are not timed: how many there are depends
          // only on how soon the first epoch lands.
          if (result.epoch.seq > 0) {
            pass.query_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
          }
          ledger->Check(result.status.ok(), "served query status");
          if (i % 64 == 0) {
            pass.samples.push_back(MakeSample(result.epoch.prefix, query.v,
                                              query.top, false, 0.0,
                                              std::move(result.buffer)));
          }
          ++i;
        }
      });
    }
    if (status.ok()) status = service.WaitIngest();
    pass.ingest_s = Seconds(NowNs() - start);
    if (reader.joinable()) reader.join();
  }
  const size_t batches = service.ingest_stats().batches;
  ledger->Attempt(std::max<size_t>(batches, 1));
  if (!status.ok()) {
    ledger->Fail("serve ingest: " + status.ToString(),
                 std::max<size_t>(batches, 1));
    return pass;
  }
  if (service.ingest_stats().interactions != options.prefix) {
    ledger->Fail("serve ingest applied the wrong number of interactions");
    return pass;
  }
  pass.epochs = service.LatestEpoch().seq;
  pass.ok = true;
  return pass;
}

std::vector<double> TimeQueries(const ProvenanceService& service,
                                const std::vector<Query>& mix, size_t count,
                                size_t prefix, size_t sample_every,
                                std::vector<Sample>* samples, Ledger* ledger) {
  std::vector<double> us;
  us.reserve(count / kQueryBlock);
  for (size_t i = 0; i < count;) {
    const int64_t t0 = NowNs();
    for (size_t j = 0; j < kQueryBlock; ++j, ++i) {
      const Query& query = mix[i % mix.size()];
      QueryResult result;
      {
        Span span("serve.query");
        result = Ask(service, query);
      }
      ledger->Check(result.status.ok() && result.epoch.prefix == prefix,
                    "drained query status");
      if (samples != nullptr && i % sample_every == 0) {
        samples->push_back(MakeSample(prefix, query.v, query.top, false, 0.0,
                                      std::move(result.buffer)));
      }
    }
    us.push_back(static_cast<double>(NowNs() - t0) * 1e-3 / kQueryBlock);
  }
  return us;
}

double ServedBufferTotal(const ProvenanceService& service, Ledger* ledger) {
  double total = 0.0;
  for (VertexId v = 0; v < service.num_vertices(); ++v) {
    const QueryResult result = service.Provenance(v);
    ledger->Check(result.status.ok(), "conservation sweep query status");
    total += result.buffer.total;
  }
  return total;
}

std::vector<double> TimeSetups(const TrackerSpec& spec,
                               const tinprov::DatasetStats& stats,
                               const tinprov::ServeOptions& options,
                               size_t count, Ledger* ledger) {
  std::vector<double> seconds;
  seconds.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (!options.durability.dir.empty()) RemoveTree(options.durability.dir);
    TrimHeap();
    const int64_t t0 = NowNs();
    auto service = ProvenanceService::Create(spec, stats, options);
    seconds.push_back(Seconds(NowNs() - t0));
    ledger->Check(service.ok(), "serve create");
  }
  if (!options.durability.dir.empty()) RemoveTree(options.durability.dir);
  return seconds;
}

HistQueries RunHistQueries(const ProvenanceService& service, const Tin& tin,
                           const std::vector<Query>& mix,
                           const std::vector<Timestamp>& times,
                           Ledger* ledger) {
  HistQueries out;
  double replayed = 0.0;
  for (size_t i = 0; i < times.size(); ++i) {
    const VertexId v = mix[i % mix.size()].v;
    QueryResult result;
    const int64_t t0 = NowNs();
    {
      Span span("serve.hist_query");
      result = service.Provenance(v, times[i]);
    }
    out.ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    ledger->Check(result.status.ok(), "historical query status");
    replayed += static_cast<double>(result.replayed_interactions);
    out.samples.push_back(MakeSample(PrefixAt(tin, times[i]), v, false, true,
                                     times[i], std::move(result.buffer)));
  }
  if (!times.empty()) replayed /= static_cast<double>(times.size());
  out.replayed_mean = replayed;
  return out;
}

double TimedRestart(const TrackerSpec& spec, const Tin& tin,
                    const std::string& dir,
                    const std::vector<Sample>& expected, Ledger* ledger) {
  if (expected.empty()) return -1.0;
  const tinprov::DatasetStats stats{tin.num_vertices(), expected[0].prefix};
  const int64_t start = NowNs();
  std::unique_ptr<ProvenanceService> service;
  QueryResult first;
  {
    Span span("serve.restart");
    auto created = ProvenanceService::Create(spec, stats, ServedOptions(dir));
    if (!created.ok()) {
      ledger->Fail("restart: " + created.status().ToString());
      return -1.0;
    }
    service = *std::move(created);
    first = Ask(*service, {expected[0].v, expected[0].top});
  }
  const double seconds = Seconds(NowNs() - start);
  ledger->Check(first.status.ok() && Digest(first.buffer) == expected[0].digest,
                "first answer after restart differs from before it");
  for (size_t i = 1; i < expected.size(); ++i) {
    const Sample& sample = expected[i];
    const QueryResult result =
        sample.at_time ? service->Provenance(sample.v, sample.t)
                       : Ask(*service, {sample.v, sample.top});
    ledger->Check(result.status.ok() && Digest(result.buffer) == sample.digest,
                  "answer after restart differs from before it (vertex " +
                      std::to_string(sample.v) + ")");
  }
  return seconds;
}

// --- Traced layer measurements ----------------------------------------------

namespace {

/// The publish/durability probe: StreamIngestor over the prefix with a
/// durable log sink, and at each epoch boundary the SaveState ->
/// RestoreState round trip PublishEpoch makes, plus WriteSnapshot — the
/// served durable write path's work, taken apart from outside.
struct PublishProbe {
  std::vector<double> publish_ms;
  std::vector<double> snapshot_ms;
  double append_s = 0.0;
  uint64_t retained_bytes = 0;
  bool ok = false;
};

class TimedAppendSink : public tinprov::BatchSink {
 public:
  explicit TimedAppendSink(tinprov::storage::DurableLog* log) : log_(log) {}
  Status OnBatch(const Interaction* batch, size_t count) override {
    Span span("storage.append");
    const int64_t t0 = NowNs();
    const Status status = log_->Append(batch, count);
    seconds += Seconds(NowNs() - t0);
    return status;
  }
  double seconds = 0.0;

 private:
  tinprov::storage::DurableLog* log_;
};

PublishProbe RunPublishProbe(const Input& input, const TrackerSpec& spec,
                             size_t prefix, const std::string& dir,
                             Ledger* ledger) {
  PublishProbe probe;
  RemoveTree(dir);
  const tinprov::ServeOptions serve = ServedOptions(dir);
  auto factory = tinprov::TrackerRegistry::Global().Factory(
      spec, tinprov::DatasetStats{input.tin.num_vertices(), prefix});
  auto log = tinprov::storage::DurableLog::Open(
      tinprov::storage::Env::Posix(), dir, 0, 0, serve.durability.log);
  if (!factory.ok() || !log.ok()) {
    ledger->Fail("publish probe setup");
    return probe;
  }
  std::unique_ptr<Tracker> live = (*factory)();
  std::vector<uint8_t> initial;
  live->SaveState(&initial);
  probe.retained_bytes = initial.size();
  TimedAppendSink sink(log->get());
  tinprov::IngestOptions ingest;
  ingest.batch_size = std::min(serve.ingest_batch, serve.epoch_interval);
  ingest.sink = &sink;
  tinprov::StreamIngestor ingestor(live.get(), ingest);
  tinprov::MaterializedStream stream(input.tin, prefix);
  size_t last = 0;
  bool done = false;
  while (!done) {
    ledger->Attempt();
    if (!ingestor.IngestBatch(stream, &done).ok()) {
      ledger->Fail("publish probe ingest");
      return probe;
    }
    const size_t applied = ingestor.stats().interactions;
    if (applied - last < serve.epoch_interval && !(done && applied != last)) {
      continue;
    }
    last = applied;
    auto state = std::make_shared<std::vector<uint8_t>>();
    int64_t t0 = NowNs();
    {
      Span span("serve.publish_roundtrip");
      live->SaveState(state.get());
      std::unique_ptr<Tracker> restored = (*factory)();
      if (!restored->RestoreState(*state).ok()) {
        ledger->Fail("publish probe restore");
        return probe;
      }
    }
    probe.publish_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    probe.retained_bytes += state->size();
    t0 = NowNs();
    {
      Span span("storage.snapshot_write");
      if (!(*log)->WriteSnapshot(applied, ingestor.stats().watermark, *state)
               .ok()) {
        ledger->Fail("publish probe snapshot write");
        return probe;
      }
    }
    probe.snapshot_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  }
  probe.append_s = sink.seconds;
  probe.ok = (*log)->Seal().ok();
  if (!probe.ok) ledger->Fail("publish probe seal");
  return probe;
}

struct EngineRun {
  double seconds = 0.0;
  std::unique_ptr<Tracker> tracker;
  /// Pool bytes the shard trackers reserved (they are gone once merged)
  /// plus the merged tracker's MemoryBytes: the engine's reservation.
  size_t reserved_bytes = 0;
};

/// The vertex-sharded engine Catchup drives, run directly so its tracker
/// (pool reservation) is visible.
EngineRun RunEngine(const Input& input, const TrackerSpec& spec, size_t prefix,
                    size_t workers, Ledger* ledger) {
  EngineRun run;
  const tinprov::DatasetStats stats{input.tin.num_vertices(), prefix};
  auto sharded = tinprov::TrackerRegistry::Global().Sharded(spec, stats);
  if (!sharded.ok()) {
    ledger->Fail("sharded spec: " + sharded.status().ToString());
    return run;
  }
  tinprov::ParallelParams params;
  params.num_threads = workers;
  tinprov::IngestOptions ingest;
  ingest.batch_size = 1024;
  tinprov::ShardedIngestEngine engine(stats, *std::move(sharded), params,
                                      ingest);
  tinprov::MaterializedStream stream(input.tin, prefix);
  const int64_t t0 = NowNs();
  auto result = [&] {
    Span span("parallel.ingest");
    return engine.IngestStream(stream);
  }();
  run.seconds = Seconds(NowNs() - t0);
  ledger->Attempt();
  if (!result.ok()) {
    ledger->Fail("sharded ingest: " + result.status().ToString());
    return run;
  }
  run.tracker = std::move(result->tracker);
  run.reserved_bytes = run.tracker->MemoryBytes();
  for (const tinprov::ShardInfo& shard : result->shards) {
    run.reserved_bytes += shard.pool_bytes;
  }
  return run;
}

}  // namespace

void RunLayers(const Input& input, const LayerPlan& plan,
               const Settings& settings, Report* report, Ledger* ledger) {
  const Tin& tin = input.tin;
  const size_t n = plan.prefix;
  const double per_op = 1e9 / static_cast<double>(n);
  const tinprov::DatasetStats stats{tin.num_vertices(), n};
  auto set = [report](const std::string& name, double value,
                      const std::string& unit) {
    if (!report->Has(name)) report->Set(name, value, unit);
  };

  // Row 1: the bare tracker.
  auto bare = tinprov::TrackerRegistry::Global().Create(plan.spec, stats);
  if (!bare.ok()) {
    ledger->Fail("tracker: " + bare.status().ToString());
    return;
  }
  double row_bare = 0.0;
  {
    tinprov::MaterializedStream stream(tin, n);
    const int64_t t0 = NowNs();
    Span span("policies.process_stream");
    ledger->Check((*bare)->ProcessStream(stream).ok(), "bare ProcessStream");
    row_bare = Seconds(NowNs() - t0);
  }
  CheckConservation(bare->get(), "bare tracker", ledger);
  std::vector<uint8_t> bare_state;
  (*bare)->SaveState(&bare_state);

  // Row 2: + StreamIngestor.
  auto ingested = tinprov::TrackerRegistry::Global().Create(plan.spec, stats);
  double row_stream = 0.0;
  {
    tinprov::IngestOptions options;
    options.batch_size = 1024;
    tinprov::StreamIngestor ingestor(ingested->get(), options);
    tinprov::MaterializedStream stream(tin, n);
    const int64_t t0 = NowNs();
    Span span("stream.ingest_all");
    ledger->Check(ingestor.IngestAll(stream).ok(), "StreamIngestor");
    row_stream = Seconds(NowNs() - t0);
  }
  std::vector<uint8_t> stream_state;
  (*ingested)->SaveState(&stream_state);
  ledger->Check(stream_state == bare_state,
                "StreamIngestor state differs from the bare tracker's");

  // Latest answers of the bare tracker, to check every served row.
  std::vector<Sample> expected;
  for (size_t i = 0; i < 64; ++i) {
    const Query& query = (*plan.mix)[i];
    Buffer buffer = (*bare)->Provenance(query.v);
    if (query.top) buffer = TopOf(std::move(buffer), kTopK);
    expected.push_back(
        MakeSample(n, query.v, query.top, false, 0.0, std::move(buffer)));
  }
  auto check_served = [&](const ProvenanceService& service, const char* row) {
    for (const Sample& sample : expected) {
      const QueryResult result = Ask(service, {sample.v, sample.top});
      ledger->Check(result.status.ok() && Digest(result.buffer) == sample.digest,
                    std::string(row) + ": served answer differs from the bare "
                                       "tracker's");
    }
  };

  // Rows 3-5: serve, + durability, + one reader.
  const std::string dir = plan.scratch_dir + "/layers";
  ServePassOptions serve_options;
  serve_options.spec = plan.spec;
  serve_options.prefix = n;
  serve_options.mix = plan.mix;
  double row_serve = 0.0;
  uint64_t epochs = 0;
  {
    ServePass pass = RunServePass(input, serve_options, ledger);
    if (pass.ok) check_served(*pass.service, "serve");
    row_serve = pass.ingest_s;
    epochs = pass.epochs;
  }
  serve_options.durable_dir = dir;
  double row_durable = 0.0;
  {
    ServePass pass = RunServePass(input, serve_options, ledger);
    if (pass.ok) check_served(*pass.service, "serve+durability");
    row_durable = pass.ingest_s;
  }
  serve_options.reader = true;
  ServePass pass = RunServePass(input, serve_options, ledger);
  const double row_reader = pass.ingest_s;
  std::vector<double> lag_ms = pass.lag_ms;
  std::vector<double> during_us = pass.query_us;
  std::vector<Sample> verify = std::move(pass.samples);
  // One visibility sample per epoch: repeat the pass until the p90 has
  // ten samples beyond it.
  for (int extra = 0; pass.ok && Beyond(lag_ms.size(), 0.9) < 10 && extra < 3;
       ++extra) {
    pass.service.reset();
    pass = RunServePass(input, serve_options, ledger);
    lag_ms.insert(lag_ms.end(), pass.lag_ms.begin(), pass.lag_ms.end());
    during_us.insert(during_us.end(), pass.query_us.begin(),
                     pass.query_us.end());
    verify.insert(verify.end(), pass.samples.begin(), pass.samples.end());
  }
  if (pass.ok) {
    check_served(*pass.service, "serve+durability+reader");
    const std::vector<double> drained =
        TimeQueries(*pass.service, *plan.mix, 20000, n, 1000000, nullptr,
                    ledger);
    const double during = Percentile(during_us, 0.99);
    const double after = Percentile(drained, 0.99);
    set("serve.reader_interference", after > 0 ? during / after : 0.0, "ratio");
    set("serve.visibility_lag_p50_ms", Percentile(lag_ms, 0.5), "ms");
    set("serve.visibility_lag_p90_ms", Percentile(lag_ms, 0.9), "ms");
    const std::vector<Timestamp> times =
        MakeTimes(tin, 100, settings.seed + 7, 0, n);
    HistQueries hist = RunHistQueries(*pass.service, tin, *plan.mix, times,
                                      ledger);
    set("serve.hist_query_p50_ms", Percentile(hist.ms, 0.5), "ms");
    set("serve.hist_query_p90_ms", Percentile(hist.ms, 0.9), "ms");
    set("lazy.replayed_per_query", hist.replayed_mean, "count");
    std::vector<Sample> before = expected;
    for (size_t i = 0; i < hist.samples.size(); i += 10) {
      before.push_back(hist.samples[i]);
    }
    verify.insert(verify.end(), hist.samples.begin(), hist.samples.end());
    pass.service.reset();
    VerifySamples(plan.spec, tin, n, std::move(verify), ledger);

    set("storage.bytes_per_input_byte",
        static_cast<double>(TreeBytes(dir)) /
            static_cast<double>(n * sizeof(Interaction)),
        "ratio");
    std::vector<double> restarts;
    for (int i = 0; i < 3; ++i) {
      restarts.push_back(TimedRestart(plan.spec, tin, dir, before, ledger));
    }
    set("serve.restart_s", Median(restarts), "s");

    auto factory = tinprov::TrackerRegistry::Global().Factory(plan.spec, stats);
    tinprov::storage::RecoveryManager manager(tinprov::storage::Env::Posix(),
                                              dir);
    int64_t t0 = NowNs();
    auto recovered = [&] {
      Span span("storage.recover");
      return manager.Recover(*factory);
    }();
    set("storage.recover_s", Seconds(NowNs() - t0), "s");
    ledger->Check(recovered.ok() && recovered->prefix == n &&
                      recovered->state == bare_state,
                  "recovered state differs from the bare tracker's");
    if (recovered.ok()) {
      t0 = NowNs();
      auto index = [&] {
        Span span("lazy.index_build");
        return tinprov::storage::BuildRecoveredIndex(*recovered,
                                                     tin.num_vertices(),
                                                     *factory, 4096);
      }();
      set("lazy.index_build_s", Seconds(NowNs() - t0), "s");
      ledger->Check(index.ok(), "recovered index build");
      std::vector<double> restore_ms;
      for (int i = 0; i < 5; ++i) {
        std::unique_ptr<Tracker> tracker = (*factory)();
        t0 = NowNs();
        Span span("lazy.restore");
        ledger->Check(tracker->RestoreState(recovered->state).ok(),
                      "RestoreState");
        restore_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      }
      set("lazy.restore_ms", Median(restore_ms), "ms");
    }
  }
  pass.service.reset();
  RemoveTree(dir);

  // Publish round trip and the durable log, taken apart.
  PublishProbe probe = RunPublishProbe(input, plan.spec, n, dir, ledger);
  set("serve.publish_ms_p50", Percentile(probe.publish_ms, 0.5), "ms");
  set("serve.epochs", static_cast<double>(epochs), "count");
  set("serve.retained_mb", static_cast<double>(probe.retained_bytes) * 1e-6,
      "MB");
  set("storage.append_ns_per_op", probe.append_s * per_op, "ns");
  set("storage.snapshot_write_ms", Percentile(probe.snapshot_ms, 0.5), "ms");
  RemoveTree(dir);

  // The sharded engine Catchup drives, at the workload's worker count and
  // at one thread.
  auto& registry = tinprov::obs::MetricsRegistry::Global();
  const uint64_t tasks0 = registry.GetCounter("parallel.tasks")->Value();
  const uint64_t steals0 = registry.GetCounter("parallel.steals")->Value();
  EngineRun wide = RunEngine(input, plan.spec, n, plan.catchup_workers, ledger);
  set("parallel.tasks",
      static_cast<double>(registry.GetCounter("parallel.tasks")->Value() -
                          tasks0),
      "count");
  set("parallel.steals",
      static_cast<double>(registry.GetCounter("parallel.steals")->Value() -
                          steals0),
      "count");
  EngineRun narrow = RunEngine(input, plan.spec, n, 1, ledger);
  if (wide.tracker != nullptr && narrow.tracker != nullptr) {
    std::vector<uint8_t> wide_state;
    wide.tracker->SaveState(&wide_state);
    ledger->Check(wide_state == bare_state,
                  "sharded ingest state differs from the bare tracker's");
    set("parallel.speedup", narrow.seconds / wide.seconds, "ratio");
  }

  // State and pool reservation of the workload's write path.
  const bool sharded = plan.sharded_write_path && wide.tracker != nullptr;
  const Tracker* state = sharded ? wide.tracker.get() : ingested->get();
  const size_t reserved =
      sharded ? wide.reserved_bytes : state->MemoryBytes();
  set("policies.state_mb", static_cast<double>(state->MemoryUsage()) * 1e-6,
      "MB");
  set("util.pool_reserved_mb", static_cast<double>(reserved) * 1e-6, "MB");
  set("util.pool_over_state",
      static_cast<double>(reserved) /
          static_cast<double>(std::max<size_t>(state->MemoryUsage(), 1)),
      "ratio");

  set("policies.process_ns_per_op", row_bare * per_op, "ns");
  set("stream.overhead_ns_per_op", (row_stream - row_bare) * per_op, "ns");
  set("serve.overhead_ns_per_op", (row_serve - row_stream) * per_op, "ns");
  set("storage.overhead_ns_per_op", (row_durable - row_serve) * per_op, "ns");
  set("datagen.gen_ns_per_op",
      input.gen_seconds * 1e9 /
          static_cast<double>(tin.num_interactions()),
      "ns");

  report->Note("layer rows over " + input.preset + " interactions [0, " +
               std::to_string(n) + ") with " + plan.spec.name +
               " (one run each):");
  report->Note("  row                           seconds   ns/op   added ns/op"
               "   rate/s");
  const struct {
    const char* name;
    double seconds;
    double previous;
  } rows[] = {
      {"tracker (ProcessStream)", row_bare, 0.0},
      {"+ StreamIngestor", row_stream, row_bare},
      {"+ serve (no reader)", row_serve, row_stream},
      {"+ durability (fsync/batch)", row_durable, row_serve},
      {"+ one reader", row_reader, row_durable},
  };
  for (const auto& row : rows) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-28s %9.3f %8.0f %12.0f %10.0f",
                  row.name, row.seconds, row.seconds * per_op,
                  (row.seconds - row.previous) * per_op,
                  static_cast<double>(n) / row.seconds);
    report->Note(buf);
  }
  char engine[160];
  std::snprintf(engine, sizeof(engine),
                "  sharded engine: %.3f s at %zu workers, %.3f s at 1",
                wide.seconds, plan.catchup_workers, narrow.seconds);
  report->Note(engine);
}

void NoteSpanTable(Report* report) {
  report->Note("spans (benchmark-side, around each layer call):");
  report->Note("  span                          count     total s      self s");
  for (const auto& [name, layer] : Tracer::Get().Layers()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-28s %7llu %11.4f %11.4f",
                  name.c_str(), static_cast<unsigned long long>(layer.count),
                  layer.total_s, layer.self_s);
    report->Note(buf);
  }
}

}  // namespace perfbench
