#include "scalable/budget.h"

#include <algorithm>

#include "obs/metrics.h"

namespace tinprov {

namespace {

size_t NormalizedCapacity(const BudgetConfig& config) {
  return config.capacity == 0 ? 1 : config.capacity;
}

size_t KeepCount(const BudgetConfig& config) {
  const size_t capacity = NormalizedCapacity(config);
  const double fraction =
      config.keep_fraction > 0.0 && config.keep_fraction <= 1.0
          ? config.keep_fraction
          : 1.0;
  const size_t keep =
      static_cast<size_t>(static_cast<double>(capacity) * fraction);
  return std::min(capacity, std::max<size_t>(1, keep));
}

}  // namespace

BudgetTracker::BudgetTracker(size_t num_vertices,
                             const BudgetConfig& config)
    : SparseProportionalBase(num_vertices),
      config_(config),
      keep_(KeepCount(config)),
      shrink_counts_(num_vertices, 0) {
  config_.capacity = NormalizedCapacity(config);
}

void BudgetTracker::MaybeShrink(VertexId v) {
  SparseVector& buffer = buffers_[v];
  if (buffer.size() <= config_.capacity) return;
  // Keep the keep_ largest shares; the dropped tuples' quantity remains
  // in the balance as unattributed alpha. Partition-then-sort keeps the
  // list origin-sorted for the next merge.
  std::nth_element(buffer.begin(),
                   buffer.begin() + static_cast<ptrdiff_t>(keep_),
                   buffer.end(),
                   [](const ProvPair& a, const ProvPair& b) {
                     return a.quantity > b.quantity;
                   });
  num_entries_ -= buffer.size() - keep_;
  // The dropped tuples' quantity leaves the attributed side of the
  // alpha accounting the moment it leaves the list.
  double dropped = 0.0;
  for (size_t i = keep_; i < buffer.size(); ++i) {
    dropped += buffer[i].quantity;
  }
  NoteAttributedDropped(dropped);
  // keep_ >= 1, so a shrink never empties a list and the base class's
  // num_nonempty_ count stays valid without an adjustment here.
  buffer.resize(keep_);
  std::sort(buffer.begin(), buffer.end(),
            [](const ProvPair& a, const ProvPair& b) {
              return a.origin < b.origin;
            });
  ++shrink_counts_[v];
  ++total_shrinks_;
  TINPROV_COUNTER_ADD("tracker.shrinks", 1);
}

void BudgetTracker::SaveAuxState(ByteWriter* writer) const {
  writer->AppendSpan(shrink_counts_.data(), shrink_counts_.size());
  writer->Append<uint64_t>(total_shrinks_);
}

Status BudgetTracker::RestoreAuxState(ByteReader* reader) {
  Status status =
      reader->ReadSpan(shrink_counts_.data(), shrink_counts_.size());
  if (!status.ok()) return status;
  uint64_t total_shrinks = 0;
  status = reader->Read(&total_shrinks);
  if (!status.ok()) return status;
  total_shrinks_ = static_cast<size_t>(total_shrinks);
  return Status::Ok();
}

ShrinkStats BudgetTracker::ComputeShrinkStats() const {
  size_t shrunk_vertices = 0;
  uint64_t shrinks = 0;
  for (const uint32_t count : shrink_counts_) {
    if (count > 0) {
      ++shrunk_vertices;
      shrinks += count;
    }
  }
  ShrinkStats stats;
  if (shrunk_vertices > 0) {
    stats.avg_shrinks = static_cast<double>(shrinks) /
                        static_cast<double>(shrunk_vertices);
  }
  if (!shrink_counts_.empty()) {
    stats.pct_vertices = 100.0 * static_cast<double>(shrunk_vertices) /
                         static_cast<double>(shrink_counts_.size());
  }
  return stats;
}

}  // namespace tinprov
