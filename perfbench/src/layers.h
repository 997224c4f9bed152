// The served pass every workload can run, and the traced per-layer
// measurements: the layer rows (bare tracker -> StreamIngestor -> serve
// -> +durability -> +reader) and direct probes of the publish round trip,
// the durable log, recovery and the lazy index, all timed from here
// through each layer's public calls.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "serve/service.h"

namespace perfbench {

/// ServeOptions of every served run: the defaults (epoch_interval 4096,
/// history retained, fsync per batch when durable).
tinprov::ServeOptions ServedOptions(const std::string& durable_dir);

struct ServePassOptions {
  TrackerSpec spec;
  /// Interactions [0, prefix) of the input are ingested.
  size_t prefix = 0;
  /// Durable state directory; empty = in memory only. Created fresh.
  std::string durable_dir;
  /// One closed-loop reader during ingest, cycling through `mix`; every
  /// 64th answer is kept for the replay check.
  bool reader = false;
  const std::vector<Query>* mix = nullptr;
};

struct ServePass {
  bool ok = false;
  double setup_s = 0.0;   // Create: fresh directory to a ready service
  double ingest_s = 0.0;  // Start to WaitIngest
  std::vector<double> query_us;  // reader latencies during ingest
  std::vector<double> lag_ms;    // epoch visibility lags seen by the reader
  std::vector<Sample> samples;   // reader answers to verify
  uint64_t epochs = 0;           // newest epoch seq after the drain
  std::unique_ptr<tinprov::ProvenanceService> service;  // drained, alive
};

/// One served ingest of the input prefix. Counts one ledger operation per
/// ingested batch and per reader query.
ServePass RunServePass(const Input& input, const ServePassOptions& options,
                       Ledger* ledger);

/// Timed latest-state queries against a drained service, in blocks of
/// kQueryBlock (one latency sample per block); every sample_every-th
/// answer is kept for verification at `prefix`.
std::vector<double> TimeQueries(const tinprov::ProvenanceService& service,
                                const std::vector<Query>& mix, size_t count,
                                size_t prefix, size_t sample_every,
                                std::vector<Sample>* samples, Ledger* ledger);

/// Sum of Provenance(v).buffer.total over every vertex of a drained
/// service: the served state's side of conservation of flow, for
/// CheckServedConservation. One ledger operation per query.
double ServedBufferTotal(const tinprov::ProvenanceService& service,
                         Ledger* ledger);

/// Set-ups timed after each pass for setup_s. One Create costs
/// milliseconds, so a run's median covers a few hundred set-ups and
/// seconds of set-up work, spread over the run like the passes are
/// rather than bunched into one stretch of the host's noise.
constexpr size_t kSetupsPerPass = 32;

/// setup_s: `count` Creates of a service from `options`, each on a
/// trimmed heap and, when durable, a fresh directory; seconds each.
std::vector<double> TimeSetups(const TrackerSpec& spec,
                               const tinprov::DatasetStats& stats,
                               const tinprov::ServeOptions& options,
                               size_t count, Ledger* ledger);

/// Provenance(v, t) on a service; fills latency (ms) and the mean of
/// replayed_interactions, keeps every answer as a sample at PrefixAt(t).
struct HistQueries {
  std::vector<double> ms;
  double replayed_mean = 0.0;
  std::vector<Sample> samples;
};
HistQueries RunHistQueries(const tinprov::ProvenanceService& service,
                           const Tin& tin, const std::vector<Query>& mix,
                           const std::vector<Timestamp>& times,
                           Ledger* ledger);

/// Restart over a durable directory: Create up to the first answer, which
/// must equal `before` for `probe`. Then every (vertex, answer) in
/// `expected` is re-asked and compared (outside the timing). Returns the
/// timed seconds, or a negative value on failure.
double TimedRestart(const TrackerSpec& spec, const Tin& tin,
                    const std::string& dir,
                    const std::vector<Sample>& expected, Ledger* ledger);

/// Traced run: the five layer rows over the input prefix, the probes, and
/// every per-layer metric they give. The workload's own traced numbers
/// (e.g. serve-fifo's reader, catchup-prop's parallel speedup) are set
/// by the workload; this fills whatever it has not already set.
struct LayerPlan {
  TrackerSpec spec;
  size_t prefix = 0;
  std::string scratch_dir;
  const std::vector<Query>* mix = nullptr;
  /// Shard workers for the catchup probe (the producer is one more).
  size_t catchup_workers = 1;
  /// The workload writes through the sharded engine, so its trackers are
  /// the ones whose state and pool reservation are reported.
  bool sharded_write_path = false;
};
void RunLayers(const Input& input, const LayerPlan& plan,
               const Settings& settings, Report* report, Ledger* ledger);

/// The layer-cost table and span self times as report notes.
void NoteSpanTable(Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
