// Per-vertex provenance storage primitives.
//
// The paper's policies differ in what they store per unit of buffered
// quantity and in which entry a transfer consumes first:
//   - receipt order (LIFO/FIFO): 2-field tuples (origin, quantity) in a
//     deque, consumed from one end or the other;
//   - generation order (LRB/MRB): 3-field tuples (origin, birth, quantity)
//     in a binary heap keyed on birth time;
//   - proportional: a per-origin breakdown, consumed pro rata.
// This header provides the tuple types, the two containers, and the
// policy-agnostic Buffer snapshot that trackers return from queries.
#ifndef TINPROV_CORE_BUFFER_H_
#define TINPROV_CORE_BUFFER_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/types.h"

namespace tinprov {

/// Receipt-order tuple: who the quantity originates from and how much.
struct ProvPair {
  VertexId origin = 0;
  double quantity = 0.0;
};

inline bool operator==(const ProvPair& a, const ProvPair& b) {
  return a.origin == b.origin && a.quantity == b.quantity;
}

/// Generation-order tuple: adds the generation (birth) timestamp.
struct ProvTriple {
  VertexId origin = 0;
  Timestamp birth = 0.0;
  double quantity = 0.0;
};

/// Heap priority: pop the entry with the earliest birth first
/// ("least recently born" selection).
struct EarlierBirthFirst {
  bool operator()(const ProvTriple& a, const ProvTriple& b) const {
    return a.birth < b.birth;
  }
};

/// Heap priority: pop the entry with the latest birth first
/// ("most recently born" selection).
struct LaterBirthFirst {
  bool operator()(const ProvTriple& a, const ProvTriple& b) const {
    return a.birth > b.birth;
  }
};

/// Array-backed binary heap. Compare(a, b) == true means a pops before b.
/// Unlike std::priority_queue it exposes a mutable top, which the
/// generation-order trackers use to split an entry in place when a
/// transfer consumes it only partially.
template <typename T, typename Compare>
class BinaryHeap {
 public:
  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }
  void clear() { items_.clear(); }

  void Push(const T& item) {
    items_.push_back(item);
    SiftUp(items_.size() - 1);
  }

  const T& Top() const {
    assert(!items_.empty());
    return items_.front();
  }

  /// Mutable access to the top entry. Callers may change fields that do
  /// not affect ordering (e.g. quantity, never birth).
  T& MutableTop() {
    assert(!items_.empty());
    return items_.front();
  }

  T Pop() {
    assert(!items_.empty());
    T top = items_.front();
    items_.front() = items_.back();
    items_.pop_back();
    if (!items_.empty()) SiftDown(0);
    return top;
  }

  size_t capacity() const { return items_.capacity(); }

  /// The backing array in heap layout. Snapshot serialization stores it
  /// verbatim so a restored heap pops equal-priority entries in exactly
  /// the order the original would have — Restore() round-trips state
  /// bit-exactly where rebuilding via Push() need not.
  const std::vector<T>& Items() const { return items_; }

  /// Replaces the contents with `items`, which must already satisfy the
  /// heap property (e.g. a verbatim copy of another heap's Items()).
  void AssignItems(std::vector<T> items) { items_ = std::move(items); }

 private:
  void SiftUp(size_t i) {
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!compare_(items_[i], items_[parent])) break;
      std::swap(items_[i], items_[parent]);
      i = parent;
    }
  }

  void SiftDown(size_t i) {
    const size_t n = items_.size();
    for (;;) {
      const size_t left = 2 * i + 1;
      const size_t right = left + 1;
      size_t best = i;
      if (left < n && compare_(items_[left], items_[best])) best = left;
      if (right < n && compare_(items_[right], items_[best])) best = right;
      if (best == i) break;
      std::swap(items_[i], items_[best]);
      i = best;
    }
  }

  std::vector<T> items_;
  Compare compare_;
};

/// Power-of-two ring buffer supporting O(1) push/pop at both ends.
/// Backs the receipt-order buffers: LIFO pops the back, FIFO the front,
/// and both push arrivals at the back.
template <typename T>
class RingDeque {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  void PushBack(const T& item) {
    if (size_ == items_.size()) Grow();
    items_[Wrap(head_ + size_)] = item;
    ++size_;
  }

  T PopFront() {
    assert(size_ > 0);
    T item = items_[head_];
    head_ = Wrap(head_ + 1);
    --size_;
    return item;
  }

  T PopBack() {
    assert(size_ > 0);
    --size_;
    return items_[Wrap(head_ + size_)];
  }

  T& Front() {
    assert(size_ > 0);
    return items_[head_];
  }

  T& Back() {
    assert(size_ > 0);
    return items_[Wrap(head_ + size_ - 1)];
  }

  const T& At(size_t i) const {
    assert(i < size_);
    return items_[Wrap(head_ + i)];
  }

  /// Appends every item to `out`, front to back, as at most two
  /// contiguous runs: head to the array's end, then the wrapped rest.
  void AppendTo(std::vector<T>* out) const {
    const size_t first = std::min(size_, items_.size() - head_);
    out->insert(out->end(), items_.data() + head_,
                items_.data() + head_ + first);
    out->insert(out->end(), items_.data(), items_.data() + (size_ - first));
  }

  size_t capacity() const { return items_.size(); }

 private:
  size_t Wrap(size_t i) const { return i & (items_.size() - 1); }

  void Grow() {
    const size_t new_capacity = items_.empty() ? 8 : items_.size() * 2;
    std::vector<T> grown(new_capacity);
    for (size_t i = 0; i < size_; ++i) grown[i] = items_[Wrap(head_ + i)];
    items_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> items_;
  size_t head_ = 0;
  size_t size_ = 0;
};

/// Policy-agnostic snapshot of one vertex's provenance, returned by
/// Tracker::Provenance(). `entries` lists the per-origin breakdown in a
/// policy-defined order; `total` is the buffered quantity. For the
/// no-provenance baseline `entries` is empty and only `total` is known.
struct Buffer {
  std::vector<ProvPair> entries;
  double total = 0.0;

  double Total() const { return total; }

  /// Sum over entries; equals Total() for provenance-bearing policies.
  double EntrySum() const {
    double sum = 0.0;
    for (const ProvPair& entry : entries) sum += entry.quantity;
    return sum;
  }
};

}  // namespace tinprov

#endif  // TINPROV_CORE_BUFFER_H_
