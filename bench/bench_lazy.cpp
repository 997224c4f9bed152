// Extension bench (paper Section 8 future work): eager annotation
// maintenance vs lazy replay-on-demand, in the spirit of Ariadne's "replay
// lazy". Eager pays per interaction and holds standing state; lazy pays per
// query. The crossover depends on the query rate — reported here as the
// break-even number of queries.
#include <cstdio>

#include "analytics/report.h"
#include "bench_util.h"
#include "lazy/history.h"
#include "lazy/replay.h"
#include "util/memory.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/strings.h"

using namespace tinprov;

namespace {

// A tiny TINPROV_SCALE can shrink a preset to an empty stream, and the
// historical section below reads interactions().back() — UB on an empty
// log. Fail with a clear message instead.
bool EnsureNonEmpty(const Tin& tin, DatasetKind kind, double scale) {
  if (tin.num_interactions() > 0) return true;
  std::fprintf(stderr,
               "bench_lazy: dataset %s has 0 interactions at TINPROV_SCALE=%g;"
               " raise the scale\n",
               std::string(DatasetName(kind)).c_str(), scale);
  return false;
}

}  // namespace

int main() {
  const double scale = bench::GetScale();
  bench::PrintHeader("Extension",
                     "Eager annotation maintenance vs lazy replay (FIFO)");
  bench::JsonBenchReporter reporter("bench_lazy");

  const size_t kQueries = 20;
  for (const DatasetKind dataset :
       {DatasetKind::kBitcoin, DatasetKind::kCtu, DatasetKind::kProsper}) {
    const Tin tin = bench::MustMakeDataset(dataset, scale);
    if (!EnsureNonEmpty(tin, dataset, scale)) return 1;
    Rng rng(11);
    std::vector<VertexId> query_vertices;
    for (size_t i = 0; i < kQueries; ++i) {
      query_vertices.push_back(
          static_cast<VertexId>(rng.NextBounded(tin.num_vertices())));
    }

    // Eager: one replay, then queries are O(buffer).
    auto eager = CreateTracker(PolicyKind::kFifo, tin.num_vertices());
    Stopwatch watch;
    if (!eager->ProcessAll(tin).ok()) return 1;
    const double eager_build = watch.ElapsedSeconds();
    watch.Restart();
    double checksum = 0.0;
    for (const VertexId v : query_vertices) {
      checksum += eager->Provenance(v).Total();
    }
    (void)checksum;
    const double eager_query = watch.ElapsedSeconds();

    // Lazy: no standing state; each query replays (full vs sliced).
    LazyReplayEngine lazy(tin, PolicyKind::kFifo);
    watch.Restart();
    size_t replayed_full = 0;
    for (const VertexId v : query_vertices) {
      if (!lazy.Provenance(v).ok()) return 1;
      replayed_full += lazy.last_stats().interactions_replayed;
    }
    const double lazy_full = watch.ElapsedSeconds();
    watch.Restart();
    size_t replayed_sliced = 0;
    for (const VertexId v : query_vertices) {
      if (!lazy.ProvenanceSliced(v).ok()) return 1;
      replayed_sliced += lazy.last_stats().interactions_replayed;
    }
    const double lazy_sliced = watch.ElapsedSeconds();

    std::printf("\n%s network (%zu interactions, %zu queries):\n",
                std::string(DatasetName(dataset)).c_str(),
                tin.num_interactions(), kQueries);
    TablePrinter table({"strategy", "build time", "query time",
                        "interactions replayed", "standing memory"});
    table.AddRow({"eager (FIFO)", FormatSeconds(eager_build),
                  FormatSeconds(eager_query),
                  std::to_string(tin.num_interactions()),
                  FormatBytes(eager->MemoryUsage())});
    table.AddRow({"lazy full replay", "0us", FormatSeconds(lazy_full),
                  std::to_string(replayed_full), "0B"});
    table.AddRow({"lazy sliced replay", "0us", FormatSeconds(lazy_sliced),
                  std::to_string(replayed_sliced), "0B"});
    std::printf("%s", table.ToString().c_str());
    const std::string dataset_name(DatasetName(dataset));
    reporter.Record(dataset_name + "/FIFO/eager_build", eager_build, 0.0,
                    eager->MemoryUsage());
    reporter.Record(dataset_name + "/FIFO/lazy_full_queries", lazy_full);
    reporter.Record(dataset_name + "/FIFO/lazy_sliced_queries", lazy_sliced);
    const double per_lazy_query = lazy_sliced / static_cast<double>(kQueries);
    if (per_lazy_query > 0.0) {
      std::printf("break-even: eager wins beyond ~%.0f queries over the "
                  "stream's lifetime\n",
                  eager_build / per_lazy_query);
    }
  }
  // Historical queries: a History (periodic snapshots + delta replay,
  // what ProvenanceService retains) vs full-prefix replay, probing
  // random past times. Every History answer must equal the lazy
  // engine's, or the bench fails.
  std::printf("\nHistorical queries (FIFO, CTU-like, 20 random past times):\n");
  {
    const Tin tin = bench::MustMakeDataset(DatasetKind::kCtu, scale);
    if (!EnsureNonEmpty(tin, DatasetKind::kCtu, scale)) return 1;
    const Timestamp end = tin.interactions().back().t;
    Rng rng(12);
    std::vector<std::pair<VertexId, Timestamp>> probes;
    for (size_t i = 0; i < kQueries; ++i) {
      // Ask about the receiver of the last interaction at or before t:
      // a vertex whose answer that interaction just changed, so the
      // answer check below catches a replay that stops one short.
      const Timestamp t = rng.NextDouble() * end;
      const size_t prefix = PrefixLength(tin, t);
      probes.emplace_back(
          prefix == 0 ? 0 : tin.interactions()[prefix - 1].dst, t);
    }
    const TrackerFactory factory = [n = tin.num_vertices()] {
      return CreateTracker(PolicyKind::kFifo, n);
    };
    TablePrinter table({"strategy", "build time", "query time",
                        "standing memory"});
    Stopwatch watch;
    History history;
    const size_t interval = tin.num_interactions() / 20 + 1;
    std::unique_ptr<Tracker> builder = factory();
    for (const Interaction& interaction : tin.interactions()) {
      if (!builder->Process(interaction).ok()) return 1;
      history.Append(interaction);
      if (history.size() % interval == 0) {
        auto image = std::make_shared<std::vector<uint8_t>>();
        builder->SaveState(image.get());
        history.Cut(history.size(), std::move(image));
      }
    }
    const History::View view = history.Publish();
    const double history_build = watch.ElapsedSeconds();
    size_t history_bytes = history.size() * sizeof(Interaction);
    for (const StateSnapshot& snapshot : history.snapshots()) {
      history_bytes += snapshot.state->size();
    }
    watch.Restart();
    std::vector<Buffer> answers;
    for (const auto& [v, t] : probes) {
      auto tracker = view.Replay(factory, view.UpperBound(t));
      if (!tracker.ok()) return 1;
      answers.push_back((*tracker)->Provenance(v));
    }
    const double history_query = watch.ElapsedSeconds();
    LazyReplayEngine lazy(tin, factory);
    watch.Restart();
    std::vector<Buffer> expected;
    for (const auto& [v, t] : probes) {
      auto buffer = lazy.Provenance(v, t);
      if (!buffer.ok()) return 1;
      expected.push_back(*std::move(buffer));
    }
    const double replay_query = watch.ElapsedSeconds();
    size_t mismatches = 0;
    for (size_t i = 0; i < kQueries; ++i) {
      if (answers[i].total != expected[i].total ||
          answers[i].entries != expected[i].entries) {
        ++mismatches;
      }
    }
    if (mismatches > 0) {
      std::fprintf(stderr,
                   "bench_lazy: %zu of %zu History answers differ from "
                   "full-prefix replay\n",
                   mismatches, kQueries);
      return 1;
    }
    table.AddRow({"history (snapshots + delta)", FormatSeconds(history_build),
                  FormatSeconds(history_query), FormatBytes(history_bytes)});
    table.AddRow({"full-prefix replay", "0us", FormatSeconds(replay_query),
                  "0B"});
    std::printf("%s", table.ToString().c_str());
    reporter.Record("CTU/FIFO/time_travel_build", history_build, 0.0,
                    history_bytes);
    reporter.Record("CTU/FIFO/time_travel_queries", history_query);
    reporter.Record("CTU/FIFO/prefix_replay_queries", replay_query);
  }

  std::printf(
      "\nExpected shape: slicing replays a fraction of the stream (the "
      "query vertex's\ntemporal influence cone); eager amortizes its one-off "
      "build cost once queries\nare frequent; the history answers historical "
      "queries in O(snapshot + delta)\ninstead of O(prefix).\n");
  return 0;
}
