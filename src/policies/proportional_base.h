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

  /// Pre-sizes the pool for about `count` standing tuples.
  void ReserveEntries(size_t count);

  /// Bytes the backing pool obtained from the system allocator —
  /// allocator-level footprint, distinct from the logical MemoryUsage().
  size_t PoolBytesReserved() const { return pool_.bytes_reserved(); }

  // --- Vertex-sharded ingest hooks (src/parallel/sharded_ingest.h) ---
  //
  // The pro-rata transfer is also linear per *list*: each interaction
  // reads src's list, writes dst's list, and touches nothing else, so a
  // shard owning a subset of the vertices can maintain exactly its
  // lists — provided it still sees every interaction. Balances,
  // deficits, and the attribution accounting are therefore REPLICATED:
  // every shard replays them for the full stream (they are O(1) scalar
  // work per interaction, the Amdahl floor the label-sharded replay
  // already pays), which keeps `fraction` locally computable, makes
  // total_generated/attributed bit-identical in every shard (the
  // divergence witness), and leaves only the transferred pair list to
  // exchange between shards.

  /// One interaction as seen by a shard that owns `own_src`/`own_dst`
  /// of its endpoints. Owning both is exactly Process(); owning neither
  /// replays the replicated bookkeeping only. Owning just the source
  /// additionally writes the transferred share — already scaled by
  /// `fraction`, so the receiver merges it at factor 1.0, which is
  /// bit-exact — into `*outgoing` (cleared first; required non-null
  /// when quantity > 0 and src != dst). Owning just the destination
  /// merges `incoming[0..incoming_len)`, the source shard's outgoing
  /// list for this same interaction, into dst's list.
  Status ProcessVertexSharded(const Interaction& interaction, bool own_src,
                              bool own_dst, SparseVector* outgoing,
                              const ProvPair* incoming, size_t incoming_len);

  /// Merges vertex-sharded ingest results into this freshly
  /// constructed tracker: per-vertex lists and balances come from each
  /// vertex's owning shard (`owner[v]` indexes `shards`), replicated
  /// state from shard 0 after verifying the shards agree bit-for-bit.
  /// All trackers must share this tracker's dynamic type and
  /// configuration. On success this tracker is bit-identical to a
  /// sequential ingest of the same stream — snapshots, further
  /// Process() calls, and queries cannot tell the difference.
  Status AdoptVertexShards(
      const std::vector<std::unique_ptr<SparseProportionalBase>>& shards,
      const std::vector<uint32_t>& owner);

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

}  // namespace tinprov

#endif  // TINPROV_POLICIES_PROPORTIONAL_BASE_H_
