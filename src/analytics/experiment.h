// Measurement harness shared by the table/figure reproduction benches:
// replay a tracker over a TIN or an interaction stream, timing the run
// and sampling peak logical provenance memory, with the paper's
// dense-proportional feasibility gate (the "-" cells of Tables 7-8).
//
// Tracker construction lives in analytics/registry.h (TrackerRegistry);
// the one measurement entry point is MeasureTracker(TrackerSpec,
// MeasureOptions).
#ifndef TINPROV_ANALYTICS_EXPERIMENT_H_
#define TINPROV_ANALYTICS_EXPERIMENT_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analytics/registry.h"
#include "core/tin.h"
#include "policies/tracker.h"
#include "stream/ingest.h"
#include "util/status.h"

namespace tinprov {

struct Measurement {
  double seconds = 0.0;
  size_t peak_memory = 0;  // peak Tracker::MemoryUsage() during replay
  bool feasible = true;    // false: skipped by the memory gate, no run
};

/// Replays `tin` through `tracker`, returning wall time and the peak of
/// the tracker's logical memory sampled throughout the run. `label` is
/// used in error messages only.
StatusOr<Measurement> MeasureRun(Tracker* tracker, const Tin& tin,
                                 const std::string& label);

/// Streaming MeasureRun: drives `tracker` from `stream` through a
/// StreamIngestor (micro-batched, watermark-checked, arena pre-sizing
/// from stream.Stats()). The memory peak is sampled once per batch —
/// coarser than MeasureRun's ~64 in-run samples, but Tin-free. When
/// `ingest_stats` is non-null it receives the full ingest accounting
/// (watermark, batches, peak buffering).
StatusOr<Measurement> MeasureStreamRun(Tracker* tracker,
                                       InteractionStream& stream,
                                       const std::string& label,
                                       IngestStats* ingest_stats = nullptr);

/// Creates a tracker for `kind` and measures it. When `kind` is the
/// dense proportional policy and its worst-case memory over
/// tin.num_vertices() exceeds `dense_memory_limit`, returns a
/// measurement with feasible == false instead of running — reproducing
/// the paper's feasibility pattern. A zero limit disables the gate.
StatusOr<Measurement> MeasurePolicy(PolicyKind kind, const Tin& tin,
                                    const std::string& dataset_name,
                                    size_t dense_memory_limit);

/// Everything that varies a measurement besides the tracker itself.
/// Exactly one input must be set: `tin` (materialized replay) or
/// `stream` (Tin-free streaming ingest). The remaining fields refine
/// the run:
///   - dense_memory_limit: the paper's feasibility gate for the dense
///     proportional policy, applied over the input's vertex count; a
///     zero limit disables the gate (feasible == false short-circuits
///     the run, exactly as MeasurePolicy does).
///   - ingest_stats: receives the full ingest accounting on the
///     streaming path (watermark, batches, peak buffering).
struct MeasureOptions {
  const Tin* tin = nullptr;
  InteractionStream* stream = nullptr;
  size_t dense_memory_limit = 0;
  IngestStats* ingest_stats = nullptr;
};

/// The one measurement entry point: measures `spec` under `options`.
/// Replaces the former MeasureNamedTracker overload family — new knobs
/// become MeasureOptions fields, not signatures. Streaming inputs
/// require TrackerMode::kStreaming on the spec (construction from the
/// dataset's shape alone is part of the streaming contract).
StatusOr<Measurement> MeasureTracker(const TrackerSpec& spec,
                                     const MeasureOptions& options);

}  // namespace tinprov

#endif  // TINPROV_ANALYTICS_EXPERIMENT_H_
