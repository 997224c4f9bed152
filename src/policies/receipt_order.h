// Receipt-order selection (paper Section 4.1): each vertex's buffer is a
// deque of 2-field (origin, quantity) tuples in arrival order. LIFO
// spends the most recently received quantity first; FIFO the least.
// Newly generated quantity counts as received at generation time, so
// LIFO spends it first and FIFO last.
#ifndef TINPROV_POLICIES_RECEIPT_ORDER_H_
#define TINPROV_POLICIES_RECEIPT_ORDER_H_

#include <vector>

#include "policies/tracker.h"

namespace tinprov {

class ReceiptOrderTracker : public Tracker {
 public:
  ReceiptOrderTracker(size_t num_vertices, bool lifo);

  Status Process(const Interaction& interaction) override;
  double BufferTotal(VertexId v) const override { return totals_[v]; }
  Buffer Provenance(VertexId v) const override;
  size_t MemoryUsage() const override;
  size_t MemoryBytes() const override;
  void PublishMetrics() const override;

  /// Tuples currently stored across all buffers.
  size_t num_entries() const { return num_entries_; }

 protected:
  void SaveStateBody(ByteWriter* writer) const override;
  Status RestoreStateBody(ByteReader* reader) override;

 private:
  // Takes up to `amount` from `v`'s buffer, appending the removed
  // fragments to `moved` in consumption order.
  void Consume(VertexId v, double amount, std::vector<ProvPair>* moved);
  void Deposit(VertexId v, const ProvPair& entry);

  const bool lifo_;
  std::vector<RingDeque<ProvPair>> buffers_;
  std::vector<double> totals_;
  size_t num_entries_ = 0;
  /// Bytes of every ring's capacity, kept current as rings grow (they
  /// never shrink) and on restore, so MemoryBytes() is O(1).
  size_t ring_bytes_ = 0;
  std::vector<ProvPair> scratch_;  // reused per interaction

  friend class MemoryBytesReference;  // tests: the O(|V|) walk
};

class LifoTracker : public ReceiptOrderTracker {
 public:
  explicit LifoTracker(size_t num_vertices)
      : ReceiptOrderTracker(num_vertices, /*lifo=*/true) {}
};

class FifoTracker : public ReceiptOrderTracker {
 public:
  explicit FifoTracker(size_t num_vertices)
      : ReceiptOrderTracker(num_vertices, /*lifo=*/false) {}
};

}  // namespace tinprov

#endif  // TINPROV_POLICIES_RECEIPT_ORDER_H_
