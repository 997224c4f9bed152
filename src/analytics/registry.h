// The single tracker construction surface: every factory-constructible
// tracker — the seven PolicyName() policies plus the scalable/ layer —
// behind one registry keyed by a TrackerSpec.
//
// This replaces the five name-taking entry points that accreted over
// PRs 1-5 (now removed): callers describe the tracker once (name +
// ScalableParams + mode) and ask the registry for whichever artifact
// the consuming engine needs — a one-shot Tracker, a reusable
// TrackerFactory, or a ShardedSpec for the parallel engine.
#ifndef TINPROV_ANALYTICS_REGISTRY_H_
#define TINPROV_ANALYTICS_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/tin.h"
#include "parallel/sharded_ingest.h"
#include "policies/tracker.h"
#include "scalable/budget.h"
#include "util/status.h"

namespace tinprov {

/// Parameters for the scalable trackers when constructed by name. The
/// defaults give every tracker a sensible mid-range configuration; the
/// scalable benches sweep these explicitly instead.
struct ScalableParams {
  size_t window = 4096;     // WindowedTracker reset period
  size_t num_tracked = 32;  // SelectiveTracker: top-k generating vertices
  size_t num_groups = 32;   // GroupedTracker: round-robin group count
  BudgetConfig budget;      // BudgetTracker capacity / keep fraction
};

/// How a spec's selection preprocessing may be performed.
///   kMaterialized — a log is available: Selective pre-scans it for its
///     top generating vertices.
///   kStreaming — the dataset's shape is all that is known up front.
///     One semantic difference is forced by streaming: "Selective"
///     cannot pre-scan the stream for its top generators, so it tracks
///     the params.num_tracked lowest vertex ids — a fixed a priori set.
///     Every other name is configured identically in both modes.
enum class TrackerMode {
  kMaterialized,
  kStreaming,
};

/// Everything needed to (re)build an identically configured tracker:
/// the display name (case-insensitive; see TrackerRegistry::Names()),
/// the scalable parameters, and the construction mode.
struct TrackerSpec {
  std::string name = "Prop-sparse";
  ScalableParams params;
  TrackerMode mode = TrackerMode::kMaterialized;
};

/// Name-based tracker construction, one registry for every consumer.
/// Stateless and therefore thread-safe; Global() returns the shared
/// instance. Unknown names yield InvalidArgument listing the accepted
/// names. Selection preprocessing (Selective's scan, Grouped's
/// assignment) runs once per call and is captured in the returned
/// closure, so a lazy query or epoch restore never re-pays it.
class TrackerRegistry {
 public:
  static const TrackerRegistry& Global();

  /// Every accepted spec name, in reporting order: the Table 7/8
  /// policies first, then the Section 5.2-5.3 scalable trackers.
  std::vector<std::string> Names() const;

  /// Ok iff spec.name resolves.
  Status Validate(const TrackerSpec& spec) const;

  /// A factory of fresh, identically configured trackers. The
  /// materialized overload honours spec.mode (kStreaming resolves from
  /// tin.Stats() alone); the stats overload requires kStreaming, since
  /// materialized selection preprocessing needs a log to scan.
  StatusOr<TrackerFactory> Factory(const TrackerSpec& spec,
                                   const Tin& tin) const;
  StatusOr<TrackerFactory> Factory(const TrackerSpec& spec,
                                   const DatasetStats& stats) const;

  /// One tracker, built through Factory().
  StatusOr<std::unique_ptr<Tracker>> Create(const TrackerSpec& spec,
                                            const Tin& tin) const;
  StatusOr<std::unique_ptr<Tracker>> Create(const TrackerSpec& spec,
                                            const DatasetStats& stats) const;

  /// Label-sharded description for ShardedIngestEngine. Pro-rata
  /// trackers with label-linear semantics — Prop-sparse, Selective,
  /// Grouped, Windowed — come back decomposable; every other name
  /// yields a sequential-only spec the engine still accepts. The
  /// sequential closure is the shard factory unrestricted, so shard and
  /// reference trackers can never be configured differently.
  StatusOr<ShardedSpec> Sharded(const TrackerSpec& spec,
                                const Tin& tin) const;
  StatusOr<ShardedSpec> Sharded(const TrackerSpec& spec,
                                const DatasetStats& stats) const;

 private:
  TrackerRegistry() = default;
};

}  // namespace tinprov

#endif  // TINPROV_ANALYTICS_REGISTRY_H_
