#include "policies/proportional_base.h"

#include <algorithm>
#include <typeinfo>

#include "core/buffer_io.h"
#include "obs/metrics.h"
#include "util/simd.h"

namespace tinprov {

static_assert(sizeof(ProvPair) == 16 && alignof(ProvPair) == 8,
              "the sparse merge kernels assume the 16-byte "
              "{origin, pad, quantity} ProvPair layout");

void MergeScaledInto(SparseVector* out, const SparseVector& a,
                     const SparseVector& b, double fraction) {
  out->ResizeUninitialized(a.size() + b.size());
  const size_t merged = simd::GallopMergeScaled(
      out->data(), a.data(), a.size(), b.data(), b.size(), fraction);
  out->ResizeUninitialized(merged);
}

void SparseProportionalBase::MergeIntoList(SparseVector* dst,
                                           const ProvPair* src, size_t n,
                                           double fraction) {
  SparseVector merged(&pool_);
  merged.ResizeUninitialized(dst->size() + n);
  merged.ResizeUninitialized(simd::GallopMergeScaled(
      merged.data(), dst->data(), dst->size(), src, n, fraction));
  dst->swap(merged);
}

Status SparseProportionalBase::Process(const Interaction& interaction) {
  auto deficit = CheckAndComputeDeficit(interaction, totals_);
  if (!deficit.ok()) return deficit.status();
  TINPROV_COUNTER_ADD("tracker.interactions", 1);
  SparseVector& src_buffer = buffers_[interaction.src];
  if (*deficit > 0.0) {
    OnGenerated(interaction.src, *deficit);
    if (AttributeGeneration(interaction.src)) {
      const ProvPair entry{GenerationLabel(interaction.src), *deficit};
      attributed_unmasked_ += *deficit;
      // The label filter (sharded replay) diverts non-owned labels into
      // alpha *after* the subclass hooks, so per-shard hook state (e.g.
      // Selective's tracked_generated) still evolves exactly as the
      // sequential tracker's does.
      if (label_mask_ == nullptr || (entry.origin < label_mask_size_ &&
                                     label_mask_[entry.origin] != 0)) {
        // Insert the newly generated share at its sorted position.
        auto it = std::lower_bound(src_buffer.begin(), src_buffer.end(),
                                   entry.origin,
                                   [](const ProvPair& p, VertexId origin) {
                                     return p.origin < origin;
                                   });
        if (it != src_buffer.end() && it->origin == entry.origin) {
          it->quantity += entry.quantity;
        } else {
          if (src_buffer.empty()) ++num_nonempty_;
          src_buffer.insert(it, entry);
          ++num_entries_;
        }
        attributed_generated_ += *deficit;
      }
    }
    totals_[interaction.src] += *deficit;
  }

  if (interaction.quantity == 0.0 ||
      interaction.src == interaction.dst) {
    // Nothing moves, or a pro-rata transfer to oneself leaves the
    // breakdown unchanged; either way the interaction still counts for
    // the post-interaction hooks (window positions advance).
    AfterInteraction(interaction);
    return Status::Ok();
  }

  const double fraction =
      std::min(1.0, interaction.quantity / totals_[interaction.src]);
  SparseVector& dst_buffer = buffers_[interaction.dst];
  const size_t dst_before = dst_buffer.size();
  const bool dst_was_empty = dst_buffer.empty();
  if (fraction >= 1.0) {
    // Whole-buffer move: into an empty destination it is a block swap;
    // otherwise merge at full strength. Either way the drained source
    // gives its block back, and the tuples only change owner, so
    // num_entries_ is debited for the source and re-credited by the
    // final destination delta. Any alpha residue moves implicitly with
    // the balance.
    num_entries_ -= src_buffer.size();
    if (!src_buffer.empty()) --num_nonempty_;
    if (dst_buffer.empty()) {
      dst_buffer.swap(src_buffer);
    } else if (!src_buffer.empty()) {
      MergeIntoList(&dst_buffer, src_buffer.data(), src_buffer.size(), 1.0);
    }
    ReleaseList(&src_buffer);
  } else if (!src_buffer.empty()) {
    MergeIntoList(&dst_buffer, src_buffer.data(), src_buffer.size(),
                  fraction);
    simd::ScalePairsInPlace(src_buffer.data(), 1.0 - fraction,
                            src_buffer.size());
  }
  if (dst_was_empty && !dst_buffer.empty()) ++num_nonempty_;
  num_entries_ += dst_buffer.size() - dst_before;
  totals_[interaction.src] -= interaction.quantity;
  totals_[interaction.dst] += interaction.quantity;
  TINPROV_HISTOGRAM_OBSERVE("tracker.list_len", dst_buffer.size());
  AfterInteraction(interaction);
  return Status::Ok();
}

Status SparseProportionalBase::AdoptLabelShards(
    const std::vector<SparseProportionalBase*>& shards) {
  if (shards.empty() || shards[0] != this) {
    return Status::InvalidArgument(
        "label shards must list the adopting tracker as shard 0");
  }
  // Every shard replayed every interaction, so the label-independent
  // scalars must agree bit-for-bit, or the tracker is not
  // label-decomposable.
  for (size_t s = 1; s < shards.size(); ++s) {
    const SparseProportionalBase* shard = shards[s];
    if (shard == nullptr || typeid(*shard) != typeid(*this) ||
        shard->totals_.size() != totals_.size()) {
      return Status::InvalidArgument(
          "shard tracker missing or of a different type/shape");
    }
    if (shard->total_generated_ != total_generated_ ||
        shard->attributed_unmasked_ != attributed_unmasked_) {
      return Status::Internal(
          "shard " + std::to_string(s) +
          " diverged from shard 0 — tracker is not label-decomposable");
    }
  }
  std::vector<size_t> cursor(shards.size());
  for (size_t v = 0; v < totals_.size(); ++v) {
    size_t others = 0;
    for (size_t s = 1; s < shards.size(); ++s) {
      others += shards[s]->buffers_[v].size();
    }
    if (others == 0) continue;  // shard 0's slice is the whole list
    SparseVector merged(&pool_);
    InterleaveVertexSlices(shards, static_cast<VertexId>(v), &merged, &cursor);
    SparseVector& list = buffers_[v];
    if (list.empty()) ++num_nonempty_;
    num_entries_ += merged.size() - list.size();
    list.swap(merged);  // the slice's block returns to the pool
  }
  attributed_generated_ = attributed_unmasked_;
  RestrictLabels(nullptr, 0);
  return Status::Ok();
}

Buffer SparseProportionalBase::Provenance(VertexId v) const {
  Buffer result;
  result.total = totals_[v];
  const SparseVector& buffer = buffers_[v];
  result.entries.assign(buffer.begin(), buffer.end());
  return result;
}

size_t SparseProportionalBase::MemoryUsage() const {
  return num_entries_ * sizeof(ProvPair) +
         totals_.capacity() * sizeof(double) + AuxiliaryBytes();
}

size_t SparseProportionalBase::MemoryBytes() const {
  // Real reservations, not stored tuples: the pool holds every list's
  // backing storage (including freed blocks awaiting reuse), so pool
  // bytes + the per-vertex arrays is the allocator-level footprint the
  // logical MemoryUsage() deliberately excludes.
  return pool_.bytes_reserved() + totals_.capacity() * sizeof(double) +
         buffers_.capacity() * sizeof(SparseVector) + AuxiliaryBytes();
}

void SparseProportionalBase::PublishMetrics() const {
  TINPROV_GAUGE_SET("memory.pool_bytes", PoolBytesReserved());
  TINPROV_GAUGE_SET("tracker.alpha_residue", AlphaResidue());
  TINPROV_GAUGE_SET("tracker.entries", num_entries());
}

void SparseProportionalBase::ReserveEntries(size_t count) {
  pool_.Reserve(count * sizeof(ProvPair));
}

void SparseProportionalBase::ReserveHint(const DatasetStats& stats) {
  // Every interaction adds at most one brand-new tuple (merges only
  // copy existing origins between lists), so standing tuples are
  // bounded by the stream length; a soft cap keeps a mis-scaled hint
  // from pinning memory, since the arena grows on demand anyway. An
  // unknown stream length (0) reserves nothing — open-ended streams
  // grow the arena on demand.
  constexpr size_t kMaxHintEntries = (size_t{8} << 20) / sizeof(ProvPair);
  ReserveEntries(std::min(stats.num_interactions, kMaxHintEntries));
}

void SparseProportionalBase::SaveStateBody(ByteWriter* writer) const {
  writer->AppendSpan(totals_.data(), totals_.size());
  writer->AppendSpan(&attributed_generated_, 1);
  for (const SparseVector& buffer : buffers_) {
    AppendEntryVector(writer, buffer);
  }
  SaveAuxState(writer);
}

Status SparseProportionalBase::RestoreStateBody(ByteReader* reader) {
  Status status = reader->ReadSpan(totals_.data(), totals_.size());
  if (!status.ok()) return status;
  status = reader->ReadSpan(&attributed_generated_, 1);
  if (!status.ok()) return status;
  attributed_unmasked_ = attributed_generated_;
  num_entries_ = 0;
  num_nonempty_ = 0;
  for (SparseVector& buffer : buffers_) {
    status = ReadEntryVector(reader, &buffer);
    if (!status.ok()) return status;
    num_entries_ += buffer.size();
    if (!buffer.empty()) ++num_nonempty_;
  }
  return RestoreAuxState(reader);
}

void SparseProportionalBase::ClearAllEntries() {
  for (SparseVector& buffer : buffers_) ReleaseList(&buffer);
  num_entries_ = 0;
  num_nonempty_ = 0;
  attributed_generated_ = 0.0;
  attributed_unmasked_ = 0.0;
}

}  // namespace tinprov
