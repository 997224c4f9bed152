// The sparse pro-rata replay kernel shared by the exact proportional
// policy (Section 4.3) and the scalable/ layer (Sections 5.2-5.3).
//
// SparseProportionalBase implements the full Process() loop — deficit
// generation, sorted insert, and the merge transfer — with three
// customisation points: how generated quantity is labelled (grouped
// tracking), whether it is attributed at all (selective tracking), and
// a post-interaction hook (window resets, budget shrinking). With the
// default hooks it is exactly the paper's proportional policy.
//
// Performance architecture: every tracker owns a NodePool (util/pool.h)
// that backs all of its provenance lists. The per-interaction transfer
// is a single gallop-merge pass (util/simd.h) into a fresh pool block
// of |dst| + |src| entries that then replaces dst's block, so every
// list stays sized to its contents; the retired block goes back to the
// pool's free list, and recycled blocks keep the loop off malloc after
// warm-up. ReserveHint() pre-sizes the pool from dataset stats.
//
// Subclasses may under-attribute: a vertex's entry sum is <= its
// buffered total, and the difference is the unattributed residue the
// paper calls alpha. Balances themselves are always exact — scalable
// tracking trades provenance detail for memory, never conservation of
// flow.
#ifndef TINPROV_POLICIES_PROPORTIONAL_BASE_H_
#define TINPROV_POLICIES_PROPORTIONAL_BASE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "policies/tracker.h"
#include "util/pool.h"

namespace tinprov {

/// Origin-sorted provenance list, storage-backed by its tracker's pool
/// (heap-backed when default-constructed, e.g. in tests).
using SparseVector = PooledVec<ProvPair>;

/// out = a + fraction * b (merged by origin, sorted). `out` is resized
/// to the merged length; its previous contents are discarded. out must
/// be distinct from both inputs. One forward pass of the gallop-merge
/// kernel the replay loop runs (tests/merge_reference.h holds the
/// two-pass merge it replaced).
void MergeScaledInto(SparseVector* out, const SparseVector& a,
                     const SparseVector& b, double fraction);

class SparseProportionalBase : public Tracker {
 public:
  Status Process(const Interaction& interaction) final;
  double BufferTotal(VertexId v) const override { return totals_[v]; }
  Buffer Provenance(VertexId v) const override;
  size_t MemoryUsage() const override;
  size_t MemoryBytes() const override;
  void PublishMetrics() const override;
  using Tracker::ReserveHint;  // keep the Tin convenience form visible
  void ReserveHint(const DatasetStats& stats) override;

  /// Provenance tuples currently stored across all vertices.
  size_t num_entries() const { return num_entries_; }

  /// Vertices whose provenance list is non-empty, maintained
  /// incrementally so Figure 6's average-list-length probe is O(1).
  size_t num_nonempty() const { return num_nonempty_; }

  /// Restricts attribution to generation labels with mask[label] != 0;
  /// everything else joins the alpha residue exactly as if
  /// AttributeGeneration had declined it. `mask` (of `size` labels) is
  /// borrowed and must outlive the tracker; nullptr lifts the
  /// restriction. This is the parallel sharded-replay hook
  /// (src/parallel/sharded_replay.h): the pro-rata transfer is linear
  /// per label, so a shard that owns a label subset replays the full
  /// log and reproduces exactly that subset of every list, bit-for-bit.
  void RestrictLabels(const uint8_t* mask, size_t size) {
    label_mask_ = mask;
    label_mask_size_ = size;
  }

  /// Read-only view of v's provenance list — the deterministic exchange
  /// phase of sharded replay interleaves these across shards.
  const SparseVector& EntriesOf(VertexId v) const { return buffers_[v]; }

  /// Completes a label-sharded replay (src/parallel/sharded_replay.h)
  /// in which this tracker ran as shard 0 of `shards` (shards[0] ==
  /// this): merges the other shards' disjoint label slices into this
  /// tracker's lists by the label interleave (InterleaveVertexSlices),
  /// written straight into its pool, adopts the unmasked attributed
  /// total (a masked shard's own counter holds only its own labels) and
  /// lifts the label mask. Balances, total_generated and aux state are
  /// this tracker's own: every shard replays them identically, which is
  /// verified first. All shards must share this tracker's dynamic type
  /// and configuration and have replayed the same stream. On success
  /// this tracker is bit-identical — SaveState bytes included — to a
  /// sequential replay of that stream.
  Status AdoptLabelShards(const std::vector<SparseProportionalBase*>& shards);

  /// Pre-sizes the pool for about `count` standing tuples.
  void ReserveEntries(size_t count);

  /// Bytes the backing pool obtained from the system allocator —
  /// allocator-level footprint, distinct from the logical MemoryUsage().
  size_t PoolBytesReserved() const { return pool_.bytes_reserved(); }

  /// The paper's alpha: generated quantity whose provenance is NOT
  /// recorded in any list (declined attribution, masked labels, window
  /// resets, budget shrinks). Maintained incrementally — the standing
  /// attributed quantity is credited at insert time and debited when
  /// tuples are dropped; pro-rata transfers only move tuples between
  /// lists, so they leave it unchanged. Zero for the exact policy.
  double AlphaResidue() const {
    return total_generated() - attributed_generated_;
  }

 protected:
  explicit SparseProportionalBase(size_t num_vertices)
      : Tracker(num_vertices),
        buffers_(num_vertices, SparseVector(&pool_)),
        totals_(num_vertices, 0.0) {}

  /// Label recorded for quantity generated at `src`. The default keeps
  /// the vertex itself; GroupedTracker maps it to a group id. Labels
  /// form their own id space — lists stay sorted by label, and the
  /// merge merges by label exactly as it merges by origin.
  virtual VertexId GenerationLabel(VertexId src) const { return src; }

  /// Whether generation at `src` is attributed at all. When false the
  /// deficit still raises the balance but joins the alpha residue.
  virtual bool AttributeGeneration(VertexId /*src*/) const { return true; }

  /// Called once per deficit-generating interaction with the generated
  /// quantity, before the attribution filter is consulted.
  virtual void OnGenerated(VertexId /*src*/, double /*quantity*/) {}

  /// Called after every successfully applied interaction.
  virtual void AfterInteraction(const Interaction& /*interaction*/) {}

  /// Drops every stored tuple and returns every list's block to the
  /// pool, leaving balances intact (the window reset): all attributed
  /// quantity collapses into alpha. O(|V|).
  void ClearAllEntries();

  /// Standing bytes of subclass-owned per-vertex state (group maps,
  /// tracked-set masks, shrink counters), added into MemoryUsage().
  virtual size_t AuxiliaryBytes() const { return 0; }

  /// Snapshot framing for the shared buffers/totals lives here; the
  /// scalable subclasses append their own mutable state (window
  /// position, shrink counters, ...) through these hooks. Configuration
  /// (window size, tracked set, group map) is a constructor concern and
  /// is deliberately not serialized.
  void SaveStateBody(ByteWriter* writer) const final;
  Status RestoreStateBody(ByteReader* reader) final;
  virtual void SaveAuxState(ByteWriter* /*writer*/) const {}
  virtual Status RestoreAuxState(ByteReader* /*reader*/) {
    return Status::Ok();
  }

  /// Debits AlphaResidue()'s attributed side when a subclass drops
  /// stored tuples without a full reset (budget shrinking).
  void NoteAttributedDropped(double quantity) {
    attributed_generated_ -= quantity;
    attributed_unmasked_ -= quantity;
  }

  // Declaration order is a destruction contract: buffers_ return their
  // storage to pool_, so the pool must be destroyed last (i.e. declared
  // first).
  NodePool pool_;
  std::vector<SparseVector> buffers_;
  std::vector<double> totals_;
  size_t num_entries_ = 0;
  size_t num_nonempty_ = 0;
  /// Standing attributed quantity: every deficit that reached a list,
  /// minus everything dropped since. See AlphaResidue().
  double attributed_generated_ = 0.0;
  /// attributed_generated_ as it would stand without a label mask: the
  /// same op sequence, but crediting every attributed deficit. Equal to
  /// attributed_generated_ on an unrestricted tracker, and identical in
  /// every label shard of a replay — the value AdoptLabelShards adopts.
  double attributed_unmasked_ = 0.0;

 private:
  /// *dst = *dst + fraction * src[0..n), written into a fresh block of
  /// |dst| + n entries that replaces dst's; the old block returns to
  /// the pool. Never merging into a reused scratch is what keeps a
  /// hub-sized block from being handed on to a short list.
  void MergeIntoList(SparseVector* dst, const ProvPair* src, size_t n,
                     double fraction);

  /// Empties `list` and returns its block to the pool.
  void ReleaseList(SparseVector* list) { *list = SparseVector(&pool_); }

  const uint8_t* label_mask_ = nullptr;
  size_t label_mask_size_ = 0;
};

/// The label-sharded exchange for one vertex: appends to `out` the
/// interleave of v's disjoint label slices across `shards` into one
/// label-sorted list, by repeated min-head selection (shard counts are
/// small; slices are disjoint, so ties are impossible). Pure data
/// movement — deterministic and free of floating-point arithmetic.
/// `cursor` is caller-provided scratch of at least shards.size()
/// elements. `Out` is a std::vector<ProvPair> or a SparseVector.
template <typename Out>
void InterleaveVertexSlices(const std::vector<SparseProportionalBase*>& shards,
                            VertexId v, Out* out,
                            std::vector<size_t>* cursor) {
  const size_t count = shards.size();
  size_t total_len = 0;
  for (size_t s = 0; s < count; ++s) {
    (*cursor)[s] = 0;
    total_len += shards[s]->EntriesOf(v).size();
  }
  out->reserve(out->size() + total_len);
  for (size_t picked = 0; picked < total_len; ++picked) {
    size_t best = count;
    VertexId best_origin = kInvalidVertex;
    for (size_t s = 0; s < count; ++s) {
      const SparseVector& list = shards[s]->EntriesOf(v);
      if ((*cursor)[s] < list.size() &&
          (best == count || list[(*cursor)[s]].origin < best_origin)) {
        best = s;
        best_origin = list[(*cursor)[s]].origin;
      }
    }
    out->push_back(shards[best]->EntriesOf(v)[(*cursor)[best]]);
    ++(*cursor)[best];
  }
}

}  // namespace tinprov

#endif  // TINPROV_POLICIES_PROPORTIONAL_BASE_H_
