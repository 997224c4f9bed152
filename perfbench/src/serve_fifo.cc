// serve-fifo: FIFO through ProvenanceService with durability (fsync per
// batch, epoch_interval 4096, history retained) and one closed-loop
// reader during ingest; after the drain, historical queries and a
// restart over the directory.
#include <algorithm>

#include "layers.h"
#include "workloads.h"

namespace perfbench {

int RunServeFifo(const Settings& settings) {
  Report report;
  Ledger ledger;
  RecordHost(settings, &report);
  const size_t threads = kServedThreads;
  if (!CheckThreadBudget("serve-fifo", threads, settings) ||
      (settings.trace && !CheckThreadBudget("traced catchup probe",
                                            CatchupWorkers(settings) + 1,
                                            settings))) {
    return 2;
  }

  const double scale = settings.short_mode ? 0.5 : 10.0;
  const Input input =
      MakeInput(tinprov::DatasetKind::kBitcoin, scale, settings.seed);
  const Tin& tin = input.tin;
  const size_t n = tin.num_interactions();
  const std::string dir = settings.scratch_dir + "/serve";
  const tinprov::ServeOptions served = ServedOptions(dir);
  report.Config("input", input.Label());
  report.Config("vertices", static_cast<double>(tin.num_vertices()));
  report.Config("interactions", static_cast<double>(n));
  report.Config("policy", "FIFO");
  report.Config("threads", static_cast<double>(threads));
  report.Config("readers", 1.0);
  report.Config("epoch_interval", static_cast<double>(served.epoch_interval));
  report.Config("ingest_batch", static_cast<double>(served.ingest_batch));
  report.Config("fsync", served.durability.log.sync_each_append
                             ? "per batch"
                             : "at rotation and snapshot");
  report.Config("retain_history", served.retain_history ? 1.0 : 0.0);

  TrackerSpec spec;
  spec.name = "FIFO";
  spec.mode = tinprov::TrackerMode::kStreaming;
  const std::vector<Query> mix = MakeQueryMix(tin, 1 << 16, settings.seed);
  const std::vector<Timestamp> times =
      MakeTimes(tin, settings.short_mode ? 8 : 24, settings.seed, 0, n);

  ServePassOptions options;
  options.spec = spec;
  options.prefix = n;
  options.durable_dir = dir;
  options.reader = true;
  options.mix = &mix;

  if (settings.trace) {
    // One untraced and one traced pass of the workload itself give the
    // tracing overhead; the layer rows then take the path apart.
    ServePass plain = RunServePass(input, options, &ledger);
    plain.service.reset();
    Tracer::Get().Enable(true);
    ServePass traced = RunServePass(input, options, &ledger);
    traced.service.reset();
    if (plain.ok && traced.ok) {
      report.Set("trace.ingest_rate_ratio", plain.ingest_s / traced.ingest_s,
                 "ratio");
    }
    LayerPlan plan;
    plan.spec = spec;
    plan.prefix = n;
    plan.scratch_dir = settings.scratch_dir;
    plan.mix = &mix;
    plan.catchup_workers = CatchupWorkers(settings);
    RunLayers(input, plan, settings, &report, &ledger);
    NoteSpanTable(&report);
    RemoveTree(settings.scratch_dir);
    return report.Print(ledger, true);
  }

  const tinprov::DatasetStats stats{tin.num_vertices(), n};
  const size_t setups_per_pass = settings.short_mode ? 4 : kSetupsPerPass;
  std::vector<double> rates, setups, peaks, query_us, lag_ms, hist_ms;
  std::vector<Sample> samples;
  double restart_s = 0.0;
  double served_total = 0.0;
  bool peak_reset = true;
  const int64_t budget_start = NowNs();
  const size_t min_passes = settings.short_mode ? 1 : 3;
  for (size_t pass_no = 0;
       pass_no < min_passes ||
       Seconds(NowNs() - budget_start) < settings.seconds;
       ++pass_no) {
    peak_reset = ResetPeakRss() && peak_reset;
    ServePass pass = RunServePass(input, options, &ledger);
    if (!pass.ok) break;
    rates.push_back(static_cast<double>(n) / pass.ingest_s);
    query_us.insert(query_us.end(), pass.query_us.begin(), pass.query_us.end());
    lag_ms.insert(lag_ms.end(), pass.lag_ms.begin(), pass.lag_ms.end());
    samples.insert(samples.end(), pass.samples.begin(), pass.samples.end());

    // After the drain: latest answers, then historical ones.
    std::vector<Sample> latest;
    TimeQueries(*pass.service, mix, 2000, n, 50, &latest, &ledger);
    HistQueries hist = RunHistQueries(*pass.service, tin, mix, times, &ledger);
    hist_ms.insert(hist_ms.end(), hist.ms.begin(), hist.ms.end());
    std::vector<Sample> before = latest;
    before.insert(before.end(), hist.samples.begin(), hist.samples.end());
    samples.insert(samples.end(), before.begin(), before.end());
    peaks.push_back(PeakRssMb());

    // Once: conservation over the served state, and a restart over the
    // directory, whose answers must come back unchanged.
    if (pass_no == 0) served_total = ServedBufferTotal(*pass.service, &ledger);
    pass.service.reset();
    if (pass_no == 0) {
      restart_s = TimedRestart(spec, tin, dir, before, &ledger);
    }
    RemoveTree(dir);
    const std::vector<double> chunk =
        TimeSetups(spec, stats, served, setups_per_pass, &ledger);
    setups.insert(setups.end(), chunk.begin(), chunk.end());
  }

  std::unique_ptr<Tracker> reference = VerifySamples(
      spec, tin, n, std::move(samples), &ledger);
  CheckConservation(reference.get(), "FIFO reference replay", &ledger);
  CheckServedConservation(served_total, reference.get(),
                          "FIFO drained service", &ledger);

  report.Set("ingest_rate", OverallRate(rates), "1/s");
  report.Set("query_p50_us", Percentile(query_us, 0.5), "us");
  report.Set("query_p99_us", Percentile(query_us, 0.99), "us");
  report.Set("peak_rss_mb", Median(peaks), "MB");
  report.Set("setup_s", Median(setups), "s");
  report.Config("passes", static_cast<double>(rates.size()));
  report.Config("ingest_rate_min", Percentile(rates, 0.0));
  report.Config("ingest_rate_max", Percentile(rates, 1.0));
  report.Config("reader_samples", static_cast<double>(query_us.size()));
  report.Config("reader_samples_beyond_p99",
                static_cast<double>(Beyond(query_us.size(), 0.99)));
  report.Config("setups", static_cast<double>(setups.size()));
  if (reference != nullptr) {
    report.Config("state_mb",
                  static_cast<double>(reference->MemoryUsage()) * 1e-6);
  }
  report.Config("hist_query_p50_ms", Percentile(hist_ms, 0.5));
  report.Config("visibility_lag_p50_ms", Percentile(lag_ms, 0.5));
  report.Config("visibility_lag_samples", static_cast<double>(lag_ms.size()));
  report.Config("restart_s", restart_s);
  report.Config("peak_rss_per_pass", peak_reset ? 1.0 : 0.0);
  report.Config("peak_rss_min", Percentile(peaks, 0.0));
  report.Config("peak_rss_max", Percentile(peaks, 1.0));
  return report.Print(ledger, true);
}

}  // namespace perfbench
