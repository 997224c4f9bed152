// The common interface of every selection-policy tracker and the factory
// that the benches and future lazy/scalable layers build on.
//
// A tracker replays a TIN interaction-by-interaction and maintains, per
// vertex, the provenance of its buffered quantity under one of the
// paper's selection policies (Sections 4.1-4.3). All trackers share the
// generation rule: if an interaction sends more than the source holds,
// the deficit is newly generated at the source at the interaction's
// timestamp, so total buffered quantity always equals total generated
// quantity (conservation of flow).
#ifndef TINPROV_POLICIES_TRACKER_H_
#define TINPROV_POLICIES_TRACKER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "core/buffer.h"
#include "core/tin.h"
#include "core/types.h"
#include "util/serialize.h"
#include "util/status.h"

namespace tinprov {

class InteractionStream;  // stream/interaction_stream.h

enum class PolicyKind {
  kNoProvenance,        // scalar balances only — the runtime baseline
  kLifo,                // receipt order, last-received spent first
  kFifo,                // receipt order, first-received spent first
  kLrb,                 // generation order, least recently born first
  kMrb,                 // generation order, most recently born first
  kProportionalSparse,  // pro-rata, per-origin sorted lists
  kProportionalDense,   // pro-rata, |V|-length vectors (memory-gated)
};

/// Short display name as used in the paper's table headers.
std::string_view PolicyName(PolicyKind kind);

/// Parses a PolicyName() display name back to its kind,
/// case-insensitively. Unknown names yield InvalidArgument — factory
/// callers get a proper Status, never a crash. Scalable tracker names
/// ("Windowed", "Budget", ...) are not policies; TrackerRegistry in
/// analytics/registry.h resolves those.
StatusOr<PolicyKind> PolicyKindFromName(std::string_view name);

class Tracker {
 public:
  explicit Tracker(size_t num_vertices) : num_vertices_(num_vertices) {}
  virtual ~Tracker() = default;

  Tracker(const Tracker&) = delete;
  Tracker& operator=(const Tracker&) = delete;

  /// Applies one interaction. Interactions must be fed in time order
  /// (ProcessStream/ProcessAll guarantee this; manual callers are on
  /// their own).
  virtual Status Process(const Interaction& interaction) = 0;

  /// The primary entry point: pulls `stream` dry, applying every
  /// interaction in arrival order. Calls ReserveHint(stream.Stats())
  /// first so standing allocations are sized once instead of grown
  /// in-loop. The stream must be in time order (stream/ingest.h's
  /// StreamIngestor enforces that and adds watermark/stat tracking).
  Status ProcessStream(InteractionStream& stream);

  /// Replays a materialized log: a thin MaterializedStream wrapper
  /// around ProcessStream, kept for callers that hold a Tin anyway.
  Status ProcessAll(const Tin& tin);

  /// Capacity hint: the tracker is about to replay a dataset of this
  /// shape and may pre-size its allocations. Purely an optimization —
  /// never affects results — and safe to skip, to call more than once,
  /// or to call with num_interactions == 0 (unknown stream length). The
  /// default does nothing.
  virtual void ReserveHint(const DatasetStats& stats) { (void)stats; }

  /// Materialized-log form, routed through the stats overload.
  void ReserveHint(const Tin& tin) { ReserveHint(tin.Stats()); }

  /// Buffered quantity at `v`.
  virtual double BufferTotal(VertexId v) const = 0;

  /// Snapshot of `v`'s provenance breakdown.
  virtual Buffer Provenance(VertexId v) const = 0;

  /// Logical bytes of standing provenance state (paper Table 8): stored
  /// tuples plus the per-vertex balance array, excluding allocator and
  /// container-header overhead so representations stay comparable. Must
  /// be O(1): measurement harnesses sample it inside the replay loop.
  virtual size_t MemoryUsage() const = 0;

  /// Allocator-level footprint: bytes of backing storage the tracker has
  /// actually reserved — pools, arenas, container capacities — as
  /// opposed to MemoryUsage()'s logical tuple accounting. The default
  /// reports the logical bytes (a floor every representation satisfies);
  /// trackers that over-allocate (pooled lists, ring deques, heaps)
  /// override it so the ingest/serve memory gauges see real
  /// reservations, whatever the policy. May be O(num_vertices): callers
  /// sample it once per batch, never per interaction.
  virtual size_t MemoryBytes() const { return MemoryUsage(); }

  /// Publishes representation-specific obs/ gauges (pool bytes, alpha
  /// residue, standing entry count). StreamIngestor calls this once per
  /// applied batch — it replaces the ingestor's old
  /// dynamic_cast<SparseProportionalBase*> probe, which silently skipped
  /// every non-pro-rata tracker. The default publishes nothing.
  virtual void PublishMetrics() const {}

  /// Count of state changes so far that reached vertices other than the
  /// applied interaction's endpoints. Process() otherwise touches only
  /// src and dst, so an incremental reader of the state (the serve
  /// layer's epoch publisher) re-reads just the endpoints it saw, and
  /// every vertex in an interval where this count moved. Windowed's
  /// periodic reset is the one such change today; the default reports
  /// none.
  virtual uint64_t WideChanges() const { return 0; }

  /// Serializes the tracker's complete mutable replay state, appending
  /// to `out`. The format is policy-private (util/serialize.h framing);
  /// its only contract is that RestoreState() on a tracker constructed
  /// with an identical configuration — same policy, same parameters,
  /// same vertex count — resumes replay bit-exactly where the snapshot
  /// was taken. The lazy/ time-travel index builds on this.
  void SaveState(std::vector<uint8_t>* out) const;

  /// Restores state produced by SaveState(). Returns InvalidArgument on
  /// truncated, oversized, or mismatched-vertex-count input; the tracker
  /// state is unspecified after a failed restore.
  Status RestoreState(const uint8_t* data, size_t size);
  Status RestoreState(const std::vector<uint8_t>& bytes) {
    return RestoreState(bytes.data(), bytes.size());
  }

  size_t num_vertices() const { return num_vertices_; }

  /// Total quantity generated so far across all vertices; equals the sum
  /// of all buffer totals under conservation of flow.
  double total_generated() const { return total_generated_; }

 protected:
  /// Policy-specific halves of SaveState()/RestoreState(). The base
  /// class frames them with the vertex count and total_generated_, and
  /// rejects snapshots with trailing bytes after the body.
  virtual void SaveStateBody(ByteWriter* writer) const = 0;
  virtual Status RestoreStateBody(ByteReader* reader) = 0;

  /// Shared validity check + deficit computation. Validates the
  /// interaction against num_vertices_ before touching `totals` (so
  /// out-of-range ids never index it), then returns the quantity that
  /// must be newly generated at the source (0 if the buffer covers the
  /// send), accumulating total_generated_.
  StatusOr<double> CheckAndComputeDeficit(const Interaction& interaction,
                                          const std::vector<double>& totals);

  size_t num_vertices_;
  double total_generated_ = 0.0;
};

/// Builds a tracker for `kind` over `num_vertices` vertices.
std::unique_ptr<Tracker> CreateTracker(PolicyKind kind, size_t num_vertices);

/// Builds a fresh, identically configured tracker on every call. The
/// lazy/ layer constructs one tracker per query (replay-on-demand) and
/// one per snapshot restore (time travel), so configuration capture —
/// policy, scalable parameters, selection preprocessing — lives in the
/// closure, not in the engine.
using TrackerFactory = std::function<std::unique_ptr<Tracker>()>;

/// All policies in the paper's Table 7/8 column order.
std::vector<PolicyKind> AllPolicies();

}  // namespace tinprov

#endif  // TINPROV_POLICIES_TRACKER_H_
