// Shared machinery of the tinprov end-to-end benchmark: run settings,
// seeded inputs and query mixes, the operation ledger, sample
// statistics, in-memory spans, and the result line.
//
// Every workload follows one shape: generate the input from the seed
// (never timed as system work), run timed passes until the measuring
// budget is spent, then check the outputs against a stop-the-world
// reference outside the timed phases. End-to-end metrics come from the
// untraced run; --trace 1 records spans around every call into a
// tinprov layer and reports the per-layer metrics instead.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analytics/registry.h"
#include "core/buffer.h"
#include "core/tin.h"
#include "datagen/presets.h"
#include "policies/tracker.h"
#include "stream/interaction_stream.h"

namespace perfbench {

using tinprov::Buffer;
using tinprov::Interaction;
using tinprov::Tin;
using tinprov::Timestamp;
using tinprov::Tracker;
using tinprov::TrackerSpec;
using tinprov::VertexId;

int64_t NowNs();
double Seconds(int64_t ns);

// --- Run settings ------------------------------------------------------------

struct Settings {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  /// Small inputs and budgets: every workload end to end in seconds.
  bool short_mode = false;
  /// Threads the workload may run at once (writer, readers, shard
  /// workers and the calling thread together); 0 = nproc.
  size_t threads = 0;
  /// Scratch directory for durable state, inside the checkout.
  std::string scratch_dir;
  /// Self-test hook: flips one quantity in one sampled answer before it
  /// is checked, which must make the run fail.
  bool corrupt_answer = false;
};

size_t Nproc();

/// Refuses (returns false with a message on stderr) a --threads budget
/// above nproc, and a workload that would run more threads than the
/// budget (nproc when none is given).
bool CheckThreadBudget(const char* what, size_t threads,
                       const Settings& settings);

/// Shard workers a catchup may use: the thread budget less the calling
/// thread, which produces the stream (at least one).
size_t CatchupWorkers(const Settings& settings);

/// Threads of a served run with one reader: writer, reader, and the
/// caller waiting for the drain.
constexpr size_t kServedThreads = 3;

// --- Inputs ------------------------------------------------------------------

struct Input {
  std::string preset;
  double scale = 1.0;
  Tin tin;
  double gen_seconds = 0.0;

  /// "<preset> x<scale>", as the config records it.
  std::string Label() const;
};

/// The preset at `scale` with its generator seed replaced by one drawn
/// from (`seed`, `draw`): the same seed gives the same inputs.
Input MakeInput(tinprov::DatasetKind kind, double scale, uint64_t seed,
                uint64_t draw = 0);

/// A seeded latest-state query: Provenance(v), or TopOrigins(v, 10) for
/// one query in four. The vertex is the destination of a uniformly drawn
/// interaction, so query skew follows the preset's destination skew onto
/// its hubs. (The 3:1 mix keeps the median inside one query kind: at 1:1
/// it would sit on the boundary between the two kinds' latency clusters
/// and jump between them.)
struct Query {
  VertexId v = 0;
  bool top = false;
};
constexpr size_t kTopK = 10;

/// Queries against a loaded state (catchup-prop, replay-prop) are timed
/// in blocks of this many, and a latency sample is the block's time per
/// query. Single queries fall into two clusters (short lists, hub
/// lists); the median of single timings sits in the sparse gap between
/// them and moved by ±16% across repeated runs of one seed. Block means
/// form one dense cluster. (serve-fifo's reader times queries alone; see
/// RunServePass.)
constexpr size_t kQueryBlock = 16;

std::vector<Query> MakeQueryMix(const Tin& tin, size_t count, uint64_t seed);

/// Seeded times for Provenance(v, t), each midway between two adjacent
/// interactions of the prefix [lo, hi) of the log.
std::vector<Timestamp> MakeTimes(const Tin& tin, size_t count, uint64_t seed,
                                 size_t lo, size_t hi);

/// Interactions with timestamp <= t: the prefix Provenance(v, t) answers.
size_t PrefixAt(const Tin& tin, Timestamp t);

/// TopOrigins' order: quantity descending, origin ascending on ties.
Buffer TopOf(Buffer buffer, size_t k);

// --- Operations, checks ------------------------------------------------------

/// Counts operations (one per ingested batch, one per query) and the ones
/// that failed: a non-OK status or an answer that does not match.
class Ledger {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what, uint64_t n = 1);
  void Check(bool ok, const std::string& what) {
    Attempt();
    if (!ok) Fail(what);
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex mu_;
  int reported_ = 0;
};

/// Order-sensitive digest of an answer's bits (total, then each entry's
/// origin and quantity). Samples keep digests, not answers, so checking
/// does not inflate the footprint being measured.
uint64_t Digest(const Buffer& buffer);

/// A served answer to re-check against a stop-the-world replay of the
/// interactions [0, prefix).
struct Sample {
  size_t prefix = 0;
  VertexId v = 0;
  bool top = false;
  /// Historical answer: Provenance(v, t) rather than the latest state.
  bool at_time = false;
  Timestamp t = 0.0;
  uint64_t digest = 0;
};

/// Records an answer as a sample. After CorruptNextSample(), the next
/// sample made has one quantity flipped first (the self-test's
/// deliberately wrong answer, which the checks must catch).
Sample MakeSample(size_t prefix, VertexId v, bool top, bool at_time,
                  Timestamp t, Buffer buffer);
void CorruptNextSample();

/// Replays `tin` once through a fresh tracker from `spec`, stopping at
/// each sample's prefix, and checks every sample bit-identical; one
/// ledger operation per sample. Returns the reference tracker after the
/// first `end` interactions (null if it could not be built).
std::unique_ptr<Tracker> VerifySamples(const TrackerSpec& spec,
                                       const Tin& tin, size_t end,
                                       std::vector<Sample> samples,
                                       Ledger* ledger);

/// Conservation of flow on `tracker`, as one ledger operation.
void CheckConservation(const Tracker* tracker, const char* what,
                       Ledger* ledger);

/// Conservation of flow on a served state: `served_total`, the sum of
/// its buffers, equals the total `reference` generated over the same
/// prefix, within a relative 1e-9. One ledger operation.
void CheckServedConservation(double served_total, const Tracker* reference,
                             const char* what, Ledger* ledger);

// --- Statistics --------------------------------------------------------------

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty set.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Throughput over all passes together: every pass ingests the same
/// count, so total work over total time is the harmonic mean of the pass
/// rates. Unlike their median it does not jump between the fast and slow
/// periods a shared host alternates through, it weighs them by time.
double OverallRate(const std::vector<double>& pass_rates);
/// Samples above the q-th percentile: the tail that supports it.
size_t Beyond(size_t n, double q);

// --- Tracing -----------------------------------------------------------------

/// In-memory spans. Disabled, Span costs one relaxed load.
class Tracer {
 public:
  struct Record {
    const char* name;
    uint64_t id;
    uint64_t parent;
    int64_t start;
    int64_t end;
  };

  static Tracer& Get();
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(const Record& record);

  struct Layer {
    uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  // total minus the time its child spans cover
  };
  /// Per span name: count, total and self time.
  std::map<std::string, Layer> Layers() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// Records one span on the current thread; its parent is the span open
/// on this thread when it starts.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ = 0;
};

// --- Streams -----------------------------------------------------------------

/// Streams a materialized log and records when each interaction was
/// pulled (steady clock), so a reader can measure how long an epoch took
/// to become visible after the writer pulled its last interaction.
class TimedStream : public tinprov::InteractionStream {
 public:
  /// Streams interactions [0, end) of `tin` (borrowed).
  TimedStream(const Tin& tin, size_t end, bool record_pulls);
  bool Next(Interaction* out) override;
  tinprov::DatasetStats Stats() const override;
  /// Pull time of interaction i; valid once pulled.
  int64_t PulledAt(size_t i) const { return pulled_[i]; }

 private:
  const Tin* tin_;
  size_t end_;
  size_t cursor_ = 0;
  std::vector<int64_t> pulled_;
};

// --- Output ------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  /// Human-readable lines (config, layer table, notes) printed before
  /// the result line.
  void Note(const std::string& line) { notes_.push_back(line); }
  void Config(const std::string& key, const std::string& value);
  void Config(const std::string& key, double value);

  /// Prints notes, the config object, then the result line. Returns the
  /// process exit code: 0 iff correct.
  int Print(const Ledger& ledger, bool checks_ok) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::pair<std::string, std::string>> config_;
};

/// Adds the host shape (nproc, SIMD level, compiler, build type) and the
/// run's seed/mode to the config.
void RecordHost(const Settings& settings, Report* report);

/// Returns freed heap memory to the system, so the next set-up starts
/// from the cold heap a fresh process would have.
void TrimHeap();

/// Starts a fresh peak-RSS window: returns freed heap memory to the
/// system (so one pass's garbage does not inflate the next pass's
/// footprint, as it would not in a fresh process) and resets the
/// kernel's VmHWM. False when the reset is unavailable; the peak then
/// covers the whole process.
bool ResetPeakRss();

/// Resident-set peak (VmHWM) in MB (1e6 bytes) since the last reset.
double PeakRssMb();

/// Removes a directory tree (scratch state), ignoring errors.
void RemoveTree(const std::string& dir);
/// Bytes of regular files under dir.
uint64_t TreeBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
