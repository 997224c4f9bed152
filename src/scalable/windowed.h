// Windowed provenance (paper Section 5.3.1, Fig. 7): exact proportional
// tracking whose provenance lists are reset every W interactions —
// buffered quantity stays, its breakdown collapses into the
// unattributed alpha residue. A smaller W bounds memory harder but pays
// the O(|V|)-sweep reset more often; Fig. 7 sweeps that trade-off.
#ifndef TINPROV_SCALABLE_WINDOWED_H_
#define TINPROV_SCALABLE_WINDOWED_H_

#include "obs/metrics.h"
#include "policies/proportional_base.h"

namespace tinprov {

class WindowedTracker : public SparseProportionalBase {
 public:
  /// A window of 0 is treated as 1 (reset after every interaction).
  WindowedTracker(size_t num_vertices, size_t window)
      : SparseProportionalBase(num_vertices),
        window_(window == 0 ? 1 : window) {}

  size_t window() const { return window_; }

  /// Resets performed so far (the last column of the Fig. 7 tables):
  /// floor(processed interactions / W).
  size_t reset_count() const { return reset_count_; }

  /// A reset clears every vertex's list, not just the endpoints'.
  uint64_t WideChanges() const override { return reset_count_; }

 protected:
  void AfterInteraction(const Interaction& /*interaction*/) override {
    if (++since_reset_ >= window_) {
      ClearAllEntries();
      since_reset_ = 0;
      ++reset_count_;
      TINPROV_COUNTER_ADD("tracker.window_resets", 1);
    }
  }

  // The window phase is replay state: a restored tracker must reset at
  // the same global interaction counts as the original. The window size
  // itself is configuration and stays with the constructor.
  void SaveAuxState(ByteWriter* writer) const override {
    writer->Append<uint64_t>(since_reset_);
    writer->Append<uint64_t>(reset_count_);
  }

  Status RestoreAuxState(ByteReader* reader) override {
    uint64_t since_reset = 0;
    uint64_t reset_count = 0;
    Status status = reader->Read(&since_reset);
    if (!status.ok()) return status;
    status = reader->Read(&reset_count);
    if (!status.ok()) return status;
    since_reset_ = static_cast<size_t>(since_reset);
    reset_count_ = static_cast<size_t>(reset_count);
    return Status::Ok();
  }

 private:
  size_t window_;
  size_t since_reset_ = 0;
  size_t reset_count_ = 0;
};

}  // namespace tinprov

#endif  // TINPROV_SCALABLE_WINDOWED_H_
