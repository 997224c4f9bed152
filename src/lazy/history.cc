#include "lazy/history.h"

#include <utility>

#include "obs/metrics.h"

namespace tinprov {

size_t History::View::UpperBound(Timestamp t) const {
  size_t lo = 0;
  size_t hi = size_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (At(mid).t <= t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

StatusOr<std::unique_ptr<Tracker>> History::View::Replay(
    const TrackerFactory& factory, size_t target, size_t* replayed) const {
  return RestoreAndReplay(
      factory, snapshots_, target,
      [this](size_t i) -> const Interaction& { return At(i); }, replayed);
}

void History::Cut(size_t prefix,
                  std::shared_ptr<const std::vector<uint8_t>> image) {
  cut_prefix_ = prefix;
  cut_image_bytes_ = image->size();
  if (!retain_) return;
  snapshot_bytes_ += image->size();
  snapshots_.push_back({prefix, std::move(image)});
}

void History::Seed(const std::vector<Interaction>& log,
                   std::vector<StateSnapshot> snapshots,
                   StateSnapshot current) {
  cut_prefix_ = current.prefix;
  cut_image_bytes_ = current.state->size();
  if (retain_) {
    for (const Interaction& interaction : log) Append(interaction);
    snapshots_ = std::move(snapshots);
    if (current.prefix > 0 &&
        (snapshots_.empty() || snapshots_.back().prefix < current.prefix)) {
      snapshots_.push_back(std::move(current));
    }
    for (const StateSnapshot& snapshot : snapshots_) {
      snapshot_bytes_ += snapshot.state->size();
    }
  }
  Report();
}

History::View History::Publish() const {
  View view;
  view.chunks_.assign(chunks_.begin(), chunks_.end());
  view.snapshots_ = snapshots_;
  view.size_ = size_;
  Report();
  return view;
}

void History::Report() const {
  TINPROV_GAUGE_SET("memory.serve_log_bytes", size_ * sizeof(Interaction));
  TINPROV_GAUGE_SET("memory.serve_snapshot_bytes", snapshot_bytes_);
}

}  // namespace tinprov
