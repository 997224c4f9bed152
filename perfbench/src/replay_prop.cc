// replay-prop: Prop-sparse offline through StreamIngestor on one thread
// (the paper's offline setting), then Tracker::Provenance(v) and top-10
// origin queries on the final state. No serve, no storage.
#include <cmath>
#include <map>

#include "layers.h"
#include "stream/ingest.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Per-origin sums, for comparing representations that order entries
/// differently.
std::map<VertexId, double> ByOrigin(const Buffer& buffer) {
  std::map<VertexId, double> sums;
  for (const tinprov::ProvPair& entry : buffer.entries) {
    sums[entry.origin] += entry.quantity;
  }
  return sums;
}

/// Sparse and dense agree within the absolute 1e-6 of the policy tests.
bool AgreesWithDense(const Buffer& sparse, const Buffer& dense) {
  constexpr double kTolerance = 1e-6;
  if (std::fabs(sparse.total - dense.total) > kTolerance) return false;
  std::map<VertexId, double> a = ByOrigin(sparse);
  std::map<VertexId, double> b = ByOrigin(dense);
  for (const auto& [origin, quantity] : a) {
    if (std::fabs(quantity - b[origin]) > kTolerance) return false;
  }
  for (const auto& [origin, quantity] : b) {
    if (std::fabs(quantity - a[origin]) > kTolerance) return false;
  }
  return true;
}

}  // namespace

int RunReplayProp(const Settings& settings) {
  Report report;
  Ledger ledger;
  RecordHost(settings, &report);
  const size_t threads = 1;
  if (!CheckThreadBudget("replay-prop", threads, settings) ||
      (settings.trace &&
       (!CheckThreadBudget("traced layer rows", kServedThreads, settings) ||
        !CheckThreadBudget("traced catchup probe",
                           CatchupWorkers(settings) + 1, settings)))) {
    return 2;
  }

  const double scale = settings.short_mode ? 10.0 : 200.0;
  const Input input =
      MakeInput(tinprov::DatasetKind::kFlights, scale, settings.seed);
  const Tin& tin = input.tin;
  const size_t n = tin.num_interactions();
  report.Config("input", input.Label());
  report.Config("vertices", static_cast<double>(tin.num_vertices()));
  report.Config("interactions", static_cast<double>(n));
  report.Config("policy", "Prop-sparse");
  report.Config("threads", static_cast<double>(threads));
  report.Config("ingest_batch", 1024.0);

  TrackerSpec spec;
  spec.name = "Prop-sparse";
  spec.mode = tinprov::TrackerMode::kStreaming;
  const std::vector<Query> mix = MakeQueryMix(tin, 1 << 16, settings.seed);

  if (settings.trace) {
    LayerPlan plan;
    plan.spec = spec;
    // The served rows retain every epoch image (|V| x |V| lists here), so
    // they run over a prefix to keep memory and disk bounded.
    plan.prefix = std::min<size_t>(n, 1 << 18);
    plan.scratch_dir = settings.scratch_dir;
    plan.mix = &mix;
    plan.catchup_workers = CatchupWorkers(settings);
    // Untraced and traced replays of the workload give the overhead.
    double rate[2] = {0.0, 0.0};
    for (int traced = 0; traced < 2; ++traced) {
      Tracer::Get().Enable(traced == 1);
      auto tracker = tinprov::TrackerRegistry::Global().Create(spec, tin.Stats());
      tinprov::IngestOptions options;
      options.batch_size = 1024;
      tinprov::StreamIngestor ingestor(tracker->get(), options);
      tinprov::MaterializedStream stream(tin);
      const int64_t t0 = NowNs();
      {
        Span span("stream.ingest_all");
        ledger.Check(ingestor.IngestAll(stream).ok(), "replay");
      }
      rate[traced] = static_cast<double>(n) / Seconds(NowNs() - t0);
    }
    report.Set("trace.ingest_rate_ratio", rate[1] / rate[0], "ratio");
    RunLayers(input, plan, settings, &report, &ledger);
    NoteSpanTable(&report);
    RemoveTree(settings.scratch_dir);
    return report.Print(ledger, true);
  }

  std::vector<double> rates, setups, peaks, query_us;
  bool peak_reset = true;
  std::vector<Sample> samples;
  std::vector<std::pair<VertexId, Buffer>> for_dense;
  std::unique_ptr<Tracker> last;
  const size_t queries_per_pass = settings.short_mode ? 2000 : 20000;
  const int64_t budget_start = NowNs();
  const size_t min_passes = settings.short_mode ? 1 : 3;
  for (size_t pass_no = 0;
       pass_no < min_passes ||
       Seconds(NowNs() - budget_start) < settings.seconds;
       ++pass_no) {
    last.reset();
    peak_reset = ResetPeakRss() && peak_reset;
    int64_t t0 = NowNs();
    auto tracker = tinprov::TrackerRegistry::Global().Create(spec, tin.Stats());
    tinprov::IngestOptions options;
    options.batch_size = 1024;
    tinprov::StreamIngestor ingestor(tracker->get(), options);
    setups.push_back(Seconds(NowNs() - t0));

    tinprov::MaterializedStream stream(tin);
    t0 = NowNs();
    const tinprov::Status status = ingestor.IngestAll(stream);
    const double seconds = Seconds(NowNs() - t0);
    ledger.Attempt(std::max<size_t>(ingestor.stats().batches, 1));
    if (!status.ok() || ingestor.stats().interactions != n) {
      ledger.Fail("replay: " + status.ToString(),
                  std::max<size_t>(ingestor.stats().batches, 1));
      break;
    }
    rates.push_back(static_cast<double>(n) / seconds);

    const Tracker& state = **tracker;
    for (size_t i = 0; i < queries_per_pass;) {
      const int64_t q0 = NowNs();
      for (size_t j = 0; j < kQueryBlock; ++j, ++i) {
        const Query& query = mix[i % mix.size()];
        Buffer buffer = state.Provenance(query.v);
        if (query.top) buffer = TopOf(std::move(buffer), kTopK);
        ledger.Attempt();
        if (i % 500 == 0) {
          if (!query.top && pass_no == 0) {
            for_dense.push_back({query.v, buffer});
          }
          samples.push_back(
              MakeSample(n, query.v, query.top, false, 0.0, std::move(buffer)));
        }
      }
      query_us.push_back(static_cast<double>(NowNs() - q0) * 1e-3 /
                         kQueryBlock);
    }
    peaks.push_back(PeakRssMb());
    last = *std::move(tracker);
  }
  // More set-ups, so setup_s is a median of many.
  for (int i = 0; i < 40; ++i) {
    TrimHeap();
    const int64_t t0 = NowNs();
    auto tracker = tinprov::TrackerRegistry::Global().Create(spec, tin.Stats());
    tinprov::StreamIngestor ingestor(tracker->get());
    setups.push_back(Seconds(NowNs() - t0));
  }

  // Checks, outside the timed phases: bit-identical to a stop-the-world
  // replay, conservation, and agreement with the dense representation.
  std::unique_ptr<Tracker> reference =
      VerifySamples(spec, tin, n, std::move(samples), &ledger);
  CheckConservation(last.get(), "Prop-sparse after the full stream", &ledger);
  TrackerSpec dense_spec = spec;
  dense_spec.name = "Prop-dense";
  auto dense = tinprov::TrackerRegistry::Global().Create(dense_spec, tin.Stats());
  ledger.Check(dense.ok() && (*dense)->ProcessAll(tin).ok(), "Prop-dense replay");
  if (dense.ok()) {
    for (const auto& [v, buffer] : for_dense) {
      ledger.Check(AgreesWithDense(buffer, (*dense)->Provenance(v)),
                   "Prop-sparse and Prop-dense disagree at vertex " +
                       std::to_string(v));
    }
  }

  report.Set("ingest_rate", OverallRate(rates), "1/s");
  report.Set("query_p50_us", Percentile(query_us, 0.5), "us");
  report.Set("query_p99_us", Percentile(query_us, 0.99), "us");
  report.Set("peak_rss_mb", Median(peaks), "MB");
  report.Set("setup_s", Median(setups), "s");
  report.Config("passes", static_cast<double>(rates.size()));
  report.Config("ingest_rate_min", Percentile(rates, 0.0));
  report.Config("ingest_rate_max", Percentile(rates, 1.0));
  report.Config("query_samples", static_cast<double>(query_us.size()));
  report.Config("query_samples_beyond_p99",
                static_cast<double>(Beyond(query_us.size(), 0.99)));
  report.Config("setups", static_cast<double>(setups.size()));
  report.Config("peak_rss_per_pass", peak_reset ? 1.0 : 0.0);
  report.Config("peak_rss_min", Percentile(peaks, 0.0));
  report.Config("peak_rss_max", Percentile(peaks, 1.0));
  if (reference != nullptr) {
    report.Config("state_mb",
                  static_cast<double>(reference->MemoryUsage()) * 1e-6);
  }
  return report.Print(ledger, true);
}

}  // namespace perfbench
