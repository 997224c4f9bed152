#include "analytics/experiment.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "policies/proportional_dense.h"
#include "util/stopwatch.h"

namespace tinprov {

StatusOr<Measurement> MeasureRun(Tracker* tracker, const Tin& tin,
                                 const std::string& label) {
  if (tracker == nullptr) {
    return Status::InvalidArgument("null tracker for " + label);
  }
  const auto& stream = tin.interactions();
  // ~64 samples across the run: enough to catch the peak of policies
  // whose footprint is not monotone (e.g. budgeted tracking later),
  // cheap enough not to distort the timing.
  const size_t sample_every = std::max<size_t>(1, stream.size() / 64);
  size_t peak = tracker->MemoryUsage();
  obs::TraceSpan span("analytics.measure_run", "analytics");
  Stopwatch watch;
  for (size_t i = 0; i < stream.size(); ++i) {
    const Status status = tracker->Process(stream[i]);
    if (!status.ok()) {
      return Status(status.code(), "replaying " + label + " at interaction " +
                                       std::to_string(i) + ": " +
                                       status.message());
    }
    if ((i + 1) % sample_every == 0) {
      peak = std::max(peak, tracker->MemoryUsage());
    }
  }
  Measurement measurement;
  measurement.seconds = watch.ElapsedSeconds();
  measurement.peak_memory = std::max(peak, tracker->MemoryUsage());
  measurement.feasible = true;
  return measurement;
}

StatusOr<Measurement> MeasureStreamRun(Tracker* tracker,
                                       InteractionStream& stream,
                                       const std::string& label,
                                       IngestStats* ingest_stats) {
  if (tracker == nullptr) {
    return Status::InvalidArgument("null tracker for " + label);
  }
  obs::TraceSpan span("analytics.measure_stream_run", "analytics");
  StreamIngestor ingestor(tracker);
  const Status status = ingestor.IngestAll(stream);
  if (!status.ok()) {
    return Status(status.code(),
                  "streaming " + label + ": " + status.message());
  }
  if (ingest_stats != nullptr) *ingest_stats = ingestor.stats();
  Measurement measurement;
  measurement.seconds = ingestor.stats().seconds;
  measurement.peak_memory =
      std::max(ingestor.stats().tracker_peak_memory, tracker->MemoryUsage());
  measurement.feasible = true;
  return measurement;
}

StatusOr<Measurement> MeasurePolicy(PolicyKind kind, const Tin& tin,
                                    const std::string& dataset_name,
                                    size_t dense_memory_limit) {
  if (kind == PolicyKind::kProportionalDense && dense_memory_limit > 0 &&
      DenseMemoryBound(tin.num_vertices()) > dense_memory_limit) {
    Measurement measurement;
    measurement.feasible = false;
    return measurement;
  }
  std::unique_ptr<Tracker> tracker = CreateTracker(kind, tin.num_vertices());
  if (tracker == nullptr) {
    return Status::InvalidArgument("unknown policy kind");
  }
  return MeasureRun(tracker.get(), tin,
                    dataset_name + "/" + std::string(PolicyName(kind)));
}

StatusOr<Measurement> MeasureTracker(const TrackerSpec& spec,
                                     const MeasureOptions& options) {
  if ((options.tin != nullptr) == (options.stream != nullptr)) {
    return Status::InvalidArgument(
        "MeasureOptions must set exactly one of tin and stream");
  }
  const TrackerRegistry& registry = TrackerRegistry::Global();
  const Status valid = registry.Validate(spec);
  if (!valid.ok()) return valid;

  // Same feasibility gate as MeasurePolicy, applied over whichever
  // input is present before any construction work happens.
  const size_t num_vertices = options.tin != nullptr
                                  ? options.tin->num_vertices()
                                  : options.stream->Stats().num_vertices;
  const auto kind = PolicyKindFromName(spec.name);
  if (kind.ok() && *kind == PolicyKind::kProportionalDense &&
      options.dense_memory_limit > 0 &&
      DenseMemoryBound(num_vertices) > options.dense_memory_limit) {
    Measurement measurement;
    measurement.feasible = false;
    return measurement;
  }

  if (options.stream != nullptr) {
    auto tracker = registry.Create(spec, options.stream->Stats());
    if (!tracker.ok()) return tracker.status();
    return MeasureStreamRun(tracker->get(), *options.stream, spec.name,
                            options.ingest_stats);
  }

  const Tin& tin = *options.tin;
  auto tracker = registry.Create(spec, tin);
  if (!tracker.ok()) return tracker.status();
  return MeasureRun(tracker->get(), tin, spec.name);
}

}  // namespace tinprov
