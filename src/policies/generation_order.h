// Generation-order selection (paper Section 4.2): each vertex's buffer
// is a binary heap of 3-field (origin, birth, quantity) tuples keyed on
// the generation timestamp. LRB ("least recently born") spends the
// oldest-born quantity first; MRB the newest. Birth timestamps survive
// transfers unchanged — only generation creates a new birth.
#ifndef TINPROV_POLICIES_GENERATION_ORDER_H_
#define TINPROV_POLICIES_GENERATION_ORDER_H_

#include <utility>
#include <vector>

#include "core/buffer_io.h"
#include "obs/metrics.h"
#include "policies/tracker.h"

namespace tinprov {

template <typename BirthOrder>
class GenerationOrderTracker : public Tracker {
 public:
  explicit GenerationOrderTracker(size_t num_vertices)
      : Tracker(num_vertices),
        buffers_(num_vertices),
        totals_(num_vertices, 0.0) {}

  Status Process(const Interaction& interaction) override {
    auto deficit = CheckAndComputeDeficit(interaction, totals_);
    if (!deficit.ok()) return deficit.status();
    if (*deficit > 0.0) {
      Push(interaction.src,
           {interaction.src, interaction.t, *deficit});
      totals_[interaction.src] += *deficit;
    }

    if (interaction.src == interaction.dst) {
      // A heap is order-insensitive to remove-and-reinsert of the same
      // tuples, so a self-loop leaves the buffer unchanged.
      return Status::Ok();
    }

    scratch_.clear();
    Consume(interaction.src, interaction.quantity, &scratch_);
    totals_[interaction.src] -= interaction.quantity;
    for (const ProvTriple& fragment : scratch_) {
      Push(interaction.dst, fragment);
    }
    totals_[interaction.dst] += interaction.quantity;
    return Status::Ok();
  }

  double BufferTotal(VertexId v) const override { return totals_[v]; }

  Buffer Provenance(VertexId v) const override {
    Buffer result;
    result.total = totals_[v];
    // Drain a copy of the heap so entries come out in consumption order.
    BinaryHeap<ProvTriple, BirthOrder> copy = buffers_[v];
    result.entries.reserve(copy.size());
    while (!copy.empty()) {
      const ProvTriple entry = copy.Pop();
      result.entries.push_back({entry.origin, entry.quantity});
    }
    return result;
  }

  size_t MemoryUsage() const override {
    return num_entries_ * sizeof(ProvTriple) +
           totals_.capacity() * sizeof(double);
  }

  size_t MemoryBytes() const override {
    // Heap capacities, not live tuples: what the allocator is actually
    // holding for this tracker.
    return totals_.capacity() * sizeof(double) +
           buffers_.capacity() * sizeof(BinaryHeap<ProvTriple, BirthOrder>) +
           scratch_.capacity() * sizeof(ProvTriple) + heap_bytes_;
  }

  void PublishMetrics() const override {
    TINPROV_GAUGE_SET("tracker.entries", num_entries());
  }

  size_t num_entries() const { return num_entries_; }

 protected:
  void SaveStateBody(ByteWriter* writer) const override {
    writer->AppendSpan(totals_.data(), totals_.size());
    // Heaps are serialized in array layout, not drain order: a restored
    // heap then pops equal-birth entries exactly as the original would,
    // keeping resumed replays bit-exact.
    for (const BinaryHeap<ProvTriple, BirthOrder>& buffer : buffers_) {
      AppendEntryVector(writer, buffer.Items());
    }
  }

  Status RestoreStateBody(ByteReader* reader) override {
    Status status = reader->ReadSpan(totals_.data(), totals_.size());
    if (!status.ok()) return status;
    num_entries_ = 0;
    heap_bytes_ = 0;
    std::vector<ProvTriple> items;
    for (BinaryHeap<ProvTriple, BirthOrder>& buffer : buffers_) {
      status = ReadEntryVector(reader, &items);
      if (!status.ok()) return status;
      num_entries_ += items.size();
      buffer.AssignItems(std::move(items));
      heap_bytes_ += buffer.capacity() * sizeof(ProvTriple);
      // ReadEntryVector clear()s the moved-from vector before refilling.
    }
    return Status::Ok();
  }

 private:
  void Push(VertexId v, const ProvTriple& entry) {
    BinaryHeap<ProvTriple, BirthOrder>& buffer = buffers_[v];
    const size_t capacity = buffer.capacity();
    buffer.Push(entry);
    heap_bytes_ += (buffer.capacity() - capacity) * sizeof(ProvTriple);
    ++num_entries_;
  }

  void Consume(VertexId v, double amount, std::vector<ProvTriple>* moved) {
    BinaryHeap<ProvTriple, BirthOrder>& buffer = buffers_[v];
    double remaining = amount;
    while (remaining > 0.0 && !buffer.empty()) {
      ProvTriple& top = buffer.MutableTop();
      if (top.quantity <= remaining) {
        remaining -= top.quantity;
        moved->push_back(buffer.Pop());
        --num_entries_;
      } else {
        // Partial consumption: shrink in place (birth key unchanged, so
        // the heap invariant holds) and emit the split fragment.
        top.quantity -= remaining;
        moved->push_back({top.origin, top.birth, remaining});
        remaining = 0.0;
      }
    }
  }

  std::vector<BinaryHeap<ProvTriple, BirthOrder>> buffers_;
  std::vector<double> totals_;
  size_t num_entries_ = 0;
  /// Bytes of every heap's capacity, kept current as heaps grow (pops
  /// never shrink them) and on restore, so MemoryBytes() is O(1).
  size_t heap_bytes_ = 0;
  std::vector<ProvTriple> scratch_;

  friend class MemoryBytesReference;  // tests: the O(|V|) walk
};

/// Least recently born: transfers propagate the oldest quantity first.
using LrbTracker = GenerationOrderTracker<EarlierBirthFirst>;

/// Most recently born: transfers propagate the newest quantity first.
using MrbTracker = GenerationOrderTracker<LaterBirthFirst>;

}  // namespace tinprov

#endif  // TINPROV_POLICIES_GENERATION_ORDER_H_
