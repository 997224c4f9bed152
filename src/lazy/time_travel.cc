#include "lazy/time_travel.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/interaction_stream.h"

namespace tinprov {

StatusOr<std::unique_ptr<TimeTravelIndex>> TimeTravelIndex::Build(
    const Tin& tin, PolicyKind kind, size_t snapshot_interval) {
  const size_t n = tin.num_vertices();
  return Build(
      tin, [kind, n] { return CreateTracker(kind, n); }, snapshot_interval);
}

StatusOr<std::unique_ptr<TimeTravelIndex>> TimeTravelIndex::Build(
    const Tin& tin, TrackerFactory factory, size_t snapshot_interval) {
  auto index =
      NewStreaming(tin.num_vertices(), std::move(factory), snapshot_interval);
  if (!index.ok()) return index.status();
  // The caller already holds the materialized log, so nothing needs to
  // be retained: feed it through the same Observe() path the streaming
  // form uses and point the index at the borrowed Tin.
  (*index)->retain_log_ = false;
  (*index)->tin_ = &tin;
  for (const Interaction& interaction : tin.interactions()) {
    const Status status = (*index)->Observe(interaction);
    if (!status.ok()) return status;
  }
  const Status status = (*index)->Finalize();
  if (!status.ok()) return status;
  return index;
}

StatusOr<std::unique_ptr<TimeTravelIndex>> TimeTravelIndex::NewStreaming(
    size_t num_vertices, TrackerFactory factory, size_t snapshot_interval) {
  if (!factory) {
    return Status::InvalidArgument("time-travel index needs a factory");
  }
  const size_t interval = snapshot_interval == 0 ? 1 : snapshot_interval;
  std::unique_ptr<TimeTravelIndex> index(
      new TimeTravelIndex(num_vertices, std::move(factory), interval));
  index->retain_log_ = true;
  index->build_tracker_ = index->factory_();
  if (index->build_tracker_ == nullptr) {
    return Status::Internal("tracker factory returned null");
  }
  return index;
}

Status TimeTravelIndex::Observe(const Interaction& interaction) {
  if (finalized_) {
    return Status::FailedPrecondition(
        "time-travel index is finalized — no further interactions");
  }
  if (interaction.t < watermark_) {
    return Status::InvalidArgument(
        "time-travel build at interaction " + std::to_string(observed_) +
        ": timestamp below the watermark — wrap the source in a "
        "SortingStream");
  }
  watermark_ = interaction.t;
  const Status status = build_tracker_->Process(interaction);
  if (!status.ok()) {
    return Status(status.code(), "time-travel build at interaction " +
                                     std::to_string(observed_) + ": " +
                                     status.message());
  }
  if (retain_log_) log_.push_back(interaction);
  ++observed_;
  if (observed_ % interval_ == 0) {
    auto state = std::make_shared<std::vector<uint8_t>>();
    {
      TINPROV_SCOPED_LATENCY_NS("timetravel.save_ns");
      build_tracker_->SaveState(state.get());
    }
    snapshots_.push_back({observed_, std::move(state)});
    TINPROV_COUNTER_ADD("timetravel.snapshots", 1);
    TINPROV_GAUGE_SET("memory.timetravel_bytes", MemoryUsage());
  }
  return Status::Ok();
}

Status TimeTravelIndex::ObserveStream(InteractionStream& stream) {
  Interaction interaction;
  while (stream.Next(&interaction)) {
    const Status status = Observe(interaction);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status TimeTravelIndex::Finalize() {
  if (finalized_) return Status::Ok();
  if (retain_log_) {
    // Arrivals were watermark-checked, so the Tin constructor's stable
    // sort is an identity permutation and the snapshot prefixes keep
    // pointing at the right log positions.
    owned_tin_ = std::make_unique<Tin>(num_vertices_, std::move(log_));
    log_ = {};
    tin_ = owned_tin_.get();
  }
  if (tin_ == nullptr) {
    return Status::FailedPrecondition(
        "time-travel index has no log to query");
  }
  build_tracker_.reset();
  finalized_ = true;
  TINPROV_GAUGE_SET("memory.timetravel_bytes", MemoryUsage());
  return Status::Ok();
}

StatusOr<Buffer> TimeTravelIndex::Provenance(VertexId v, Timestamp t) const {
  obs::TraceSpan span("timetravel.query", "lazy");
  TINPROV_COUNTER_ADD("timetravel.queries", 1);
  if (!finalized_) {
    return Status::FailedPrecondition(
        "time-travel index is still ingesting — call Finalize() first");
  }
  if (v >= tin_->num_vertices()) {
    return Status::InvalidArgument("query vertex " + std::to_string(v) +
                                   " out of range");
  }
  const size_t prefix = PrefixLength(*tin_, t);
  const auto& log = tin_->interactions();
  size_t replayed = 0;
  auto tracker = RestoreAndReplay(
      factory_, snapshots_, prefix,
      [&log](size_t i) -> const Interaction& { return log[i]; }, &replayed);
  if (!tracker.ok()) return tracker.status();
  TINPROV_COUNTER_ADD("timetravel.delta_interactions", replayed);
  return (*tracker)->Provenance(v);
}

size_t TimeTravelIndex::MemoryUsage() const {
  size_t bytes = 0;
  for (const StateSnapshot& snapshot : snapshots_) {
    bytes += snapshot.state->size() + sizeof(snapshot.prefix);
  }
  bytes += log_.capacity() * sizeof(Interaction);
  if (owned_tin_ != nullptr) bytes += owned_tin_->MemoryUsage();
  return bytes;
}

}  // namespace tinprov
