#include "policies/receipt_order.h"

#include "core/buffer_io.h"
#include "obs/metrics.h"

namespace tinprov {

ReceiptOrderTracker::ReceiptOrderTracker(size_t num_vertices, bool lifo)
    : Tracker(num_vertices),
      lifo_(lifo),
      buffers_(num_vertices),
      totals_(num_vertices, 0.0) {}

Status ReceiptOrderTracker::Process(const Interaction& interaction) {
  auto deficit = CheckAndComputeDeficit(interaction, totals_);
  if (!deficit.ok()) return deficit.status();
  if (*deficit > 0.0) {
    Deposit(interaction.src, {interaction.src, *deficit});
    totals_[interaction.src] += *deficit;
  }

  // Self-loops still go through consume/deposit: under FIFO the sent
  // quantity genuinely rotates from the buffer's front to its back.
  scratch_.clear();
  Consume(interaction.src, interaction.quantity, &scratch_);
  totals_[interaction.src] -= interaction.quantity;
  for (const ProvPair& fragment : scratch_) {
    Deposit(interaction.dst, fragment);
  }
  totals_[interaction.dst] += interaction.quantity;
  return Status::Ok();
}

void ReceiptOrderTracker::Consume(VertexId v, double amount,
                                  std::vector<ProvPair>* moved) {
  RingDeque<ProvPair>& buffer = buffers_[v];
  double remaining = amount;
  while (remaining > 0.0 && !buffer.empty()) {
    ProvPair& entry = lifo_ ? buffer.Back() : buffer.Front();
    if (entry.quantity <= remaining) {
      remaining -= entry.quantity;
      moved->push_back(entry);
      if (lifo_) {
        buffer.PopBack();
      } else {
        buffer.PopFront();
      }
      --num_entries_;
    } else {
      // Split: the consumed fragment leaves, the remainder stays put.
      entry.quantity -= remaining;
      moved->push_back({entry.origin, remaining});
      remaining = 0.0;
    }
  }
  // Float drift can leave a vanishing remainder against an empty buffer;
  // it was already accounted in totals_, so nothing further to move.
}

void ReceiptOrderTracker::Deposit(VertexId v, const ProvPair& entry) {
  RingDeque<ProvPair>& buffer = buffers_[v];
  // Coalesce with the newest entry when the origin matches: receipt
  // order within one origin is indistinguishable, and merging keeps the
  // tuple count (and Table 8 memory) from inflating.
  if (!buffer.empty() && buffer.Back().origin == entry.origin) {
    buffer.Back().quantity += entry.quantity;
    return;
  }
  const size_t capacity = buffer.capacity();
  buffer.PushBack(entry);
  ring_bytes_ += (buffer.capacity() - capacity) * sizeof(ProvPair);
  ++num_entries_;
}

Buffer ReceiptOrderTracker::Provenance(VertexId v) const {
  Buffer result;
  result.total = totals_[v];
  const RingDeque<ProvPair>& buffer = buffers_[v];
  result.entries.reserve(buffer.size());
  // Oldest first, i.e. FIFO consumption order.
  buffer.AppendTo(&result.entries);
  return result;
}

size_t ReceiptOrderTracker::MemoryUsage() const {
  return num_entries_ * sizeof(ProvPair) +
         totals_.capacity() * sizeof(double);
}

size_t ReceiptOrderTracker::MemoryBytes() const {
  // Ring capacities, not live tuples: what the allocator is actually
  // holding for this tracker.
  return totals_.capacity() * sizeof(double) +
         buffers_.capacity() * sizeof(RingDeque<ProvPair>) +
         scratch_.capacity() * sizeof(ProvPair) + ring_bytes_;
}

void ReceiptOrderTracker::PublishMetrics() const {
  TINPROV_GAUGE_SET("tracker.entries", num_entries());
}

void ReceiptOrderTracker::SaveStateBody(ByteWriter* writer) const {
  writer->AppendSpan(totals_.data(), totals_.size());
  // Deques are stored in logical (oldest-first) order; the ring's head
  // offset is an implementation detail that need not survive a restore.
  for (const RingDeque<ProvPair>& buffer : buffers_) {
    writer->Append<uint64_t>(buffer.size());
    for (size_t i = 0; i < buffer.size(); ++i) {
      AppendEntry(writer, buffer.At(i));
    }
  }
}

Status ReceiptOrderTracker::RestoreStateBody(ByteReader* reader) {
  Status status = reader->ReadSpan(totals_.data(), totals_.size());
  if (!status.ok()) return status;
  num_entries_ = 0;
  ring_bytes_ = 0;
  for (RingDeque<ProvPair>& buffer : buffers_) {
    buffer.clear();
    uint64_t count = 0;
    status = reader->Read(&count);
    if (!status.ok()) return status;
    for (uint64_t i = 0; i < count; ++i) {
      ProvPair entry;
      status = ReadEntry(reader, &entry);
      if (!status.ok()) return status;
      buffer.PushBack(entry);
    }
    num_entries_ += buffer.size();
    ring_bytes_ += buffer.capacity() * sizeof(ProvPair);
  }
  return Status::Ok();
}

}  // namespace tinprov
