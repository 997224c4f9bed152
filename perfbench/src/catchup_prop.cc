// catchup-prop: Prop-sparse over a large vertex set, bulk-loaded through
// ProvenanceService::Catchup (vertex-sharded ingest, shard workers plus
// the producing thread within nproc), then latest-epoch queries.
#include <algorithm>

#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Inputs drawn per run; each round loads every one once. Prop-sparse
/// state on Bitcoin is heavy-tailed across draws (about 4 MB typically,
/// over 40 MB for a draw whose top sources are also top destinations),
/// so a metric taken from one draw would measure the draw.
constexpr size_t kDraws = 4;

}  // namespace

int RunCatchupProp(const Settings& settings) {
  Report report;
  Ledger ledger;
  RecordHost(settings, &report);
  // Shard workers plus the calling thread, which produces the stream.
  const size_t workers = CatchupWorkers(settings);
  if (!CheckThreadBudget("catchup-prop", workers + 1, settings) ||
      (settings.trace &&
       !CheckThreadBudget("traced layer rows", kServedThreads, settings))) {
    return 2;
  }

  const double scale = settings.short_mode ? 0.5 : 10.0;
  const size_t draws = settings.trace || settings.short_mode ? 1 : kDraws;
  std::vector<Input> inputs;
  std::vector<std::vector<Query>> mixes;
  for (size_t d = 0; d < draws; ++d) {
    inputs.push_back(
        MakeInput(tinprov::DatasetKind::kBitcoin, scale, settings.seed, d));
    mixes.push_back(MakeQueryMix(inputs[d].tin, 1 << 16, settings.seed + d));
  }
  const size_t n = inputs[0].tin.num_interactions();
  report.Config("input", inputs[0].Label());
  report.Config("inputs_per_run", static_cast<double>(draws));
  report.Config("vertices", static_cast<double>(inputs[0].tin.num_vertices()));
  report.Config("interactions", static_cast<double>(n));
  report.Config("policy", "Prop-sparse");
  report.Config("threads", static_cast<double>(workers + 1));
  report.Config("shard_workers", static_cast<double>(workers));

  TrackerSpec spec;
  spec.name = "Prop-sparse";
  spec.mode = tinprov::TrackerMode::kStreaming;
  tinprov::ServeOptions options = ServedOptions("");
  options.catchup.num_threads = workers;
  const tinprov::DatasetStats stats{inputs[0].tin.num_vertices(), n};

  struct Loaded {
    double load_s = 0.0;
    std::unique_ptr<tinprov::ProvenanceService> service;
  };
  auto load = [&](const Tin& tin) {
    Loaded loaded;
    auto created = [&] {
      Span span("serve.create");
      return tinprov::ProvenanceService::Create(spec, stats, options);
    }();
    if (!created.ok()) {
      ledger.Fail("serve create: " + created.status().ToString());
      return loaded;
    }
    const int64_t t0 = NowNs();
    tinprov::Status status;
    {
      Span span("serve.catchup");
      status = (*created)->Catchup(
          std::make_unique<tinprov::MaterializedStream>(tin));
    }
    loaded.load_s = Seconds(NowNs() - t0);
    const size_t batches =
        std::max<size_t>((*created)->catchup_stats().batches, 1);
    ledger.Attempt(batches);
    if (!status.ok() || (*created)->LatestEpoch().prefix != n) {
      ledger.Fail("catchup: " + status.ToString(), batches);
      return loaded;
    }
    loaded.service = *std::move(created);
    return loaded;
  };

  if (settings.trace) {
    const Input& input = inputs[0];
    Loaded plain = load(input.tin);
    Tracer::Get().Enable(true);
    Loaded traced = load(input.tin);
    if (plain.service != nullptr && traced.service != nullptr) {
      report.Set("trace.ingest_rate_ratio", plain.load_s / traced.load_s,
                 "ratio");
      // Historical queries inside the catchup range: the retained log has
      // no snapshot there, so each one replays from epoch 0.
      const std::vector<Timestamp> times =
          MakeTimes(input.tin, 3, settings.seed + 11, n / 4, n * 3 / 4);
      HistQueries hist =
          RunHistQueries(*traced.service, input.tin, mixes[0], times, &ledger);
      report.Set("lazy.replayed_per_query", hist.replayed_mean, "count");
      VerifySamples(spec, input.tin, n, std::move(hist.samples), &ledger);
    }
    plain.service.reset();
    traced.service.reset();
    LayerPlan plan;
    plan.spec = spec;
    plan.prefix = n;
    plan.scratch_dir = settings.scratch_dir;
    plan.mix = &mixes[0];
    plan.catchup_workers = workers;
    plan.sharded_write_path = true;
    RunLayers(input, plan, settings, &report, &ledger);
    NoteSpanTable(&report);
    RemoveTree(settings.scratch_dir);
    return report.Print(ledger, true);
  }

  // Whole rounds only, one pass per draw each, so every draw weighs the
  // same in every metric however fast a pass runs. Another round starts
  // only if one more fits the budget at the rounds' mean time so far.
  std::vector<double> rates, setups, peaks, query_us;
  std::vector<std::vector<Sample>> samples(draws);
  std::vector<double> served_totals(draws, 0.0);
  bool peak_reset = true;
  bool loaded_all = true;
  const size_t queries_per_pass = settings.short_mode ? 2000 : 80000;
  const size_t setups_per_pass = settings.short_mode ? 4 : kSetupsPerPass;
  const int64_t budget_start = NowNs();
  for (size_t round = 0; loaded_all; ++round) {
    const double spent = Seconds(NowNs() - budget_start);
    if (round > 0 &&
        spent + spent / static_cast<double>(round) > settings.seconds) {
      break;
    }
    for (size_t d = 0; d < draws; ++d) {
      peak_reset = ResetPeakRss() && peak_reset;
      Loaded loaded = load(inputs[d].tin);
      if (loaded.service == nullptr) {
        loaded_all = false;
        break;
      }
      rates.push_back(static_cast<double>(n) / loaded.load_s);
      const std::vector<double> us =
          TimeQueries(*loaded.service, mixes[d], queries_per_pass, n, 500,
                      &samples[d], &ledger);
      query_us.insert(query_us.end(), us.begin(), us.end());
      peaks.push_back(PeakRssMb());
      if (round == 0) {
        served_totals[d] = ServedBufferTotal(*loaded.service, &ledger);
      }
      loaded.service.reset();
      const std::vector<double> chunk =
          TimeSetups(spec, stats, options, setups_per_pass, &ledger);
      setups.insert(setups.end(), chunk.begin(), chunk.end());
    }
  }
  const size_t rounds = rates.size() / draws;

  double state_mb = 0.0;
  for (size_t d = 0; d < draws; ++d) {
    std::unique_ptr<Tracker> reference = VerifySamples(
        spec, inputs[d].tin, n, std::move(samples[d]), &ledger);
    CheckConservation(reference.get(), "Prop-sparse reference replay",
                      &ledger);
    CheckServedConservation(served_totals[d], reference.get(),
                            "Prop-sparse after Catchup", &ledger);
    if (reference != nullptr) {
      state_mb = std::max(
          state_mb, static_cast<double>(reference->MemoryUsage()) * 1e-6);
    }
  }

  report.Set("ingest_rate", OverallRate(rates), "1/s");
  report.Set("query_p50_us", Percentile(query_us, 0.5), "us");
  report.Set("query_p99_us", Percentile(query_us, 0.99), "us");
  report.Set("peak_rss_mb", Median(peaks), "MB");
  report.Set("setup_s", Median(setups), "s");
  report.Config("rounds", static_cast<double>(rounds));
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
  report.Config("state_mb_max", state_mb);
  return report.Print(ledger, true);
}

}  // namespace perfbench
