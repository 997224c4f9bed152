// Policy-tracker semantics: the conservation-of-flow invariant on every
// policy, the ordering that distinguishes LIFO / FIFO / LRB / MRB, and
// sparse-vs-dense proportional agreement.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <memory>
#include <utility>
#include <vector>

#include "datagen/generator.h"
#include "datagen/presets.h"
#include "merge_reference.h"
#include "policies/generation_order.h"
#include "policies/no_provenance.h"
#include "policies/proportional_dense.h"
#include "policies/proportional_sparse.h"
#include "policies/receipt_order.h"
#include "policies/tracker.h"

namespace tinprov {

// The O(|V|) capacity walk MemoryBytes() used to run after every batch,
// kept here as the reference its running totals must equal.
class MemoryBytesReference {
 public:
  static size_t Walk(const ReceiptOrderTracker& tracker) {
    size_t bytes = tracker.totals_.capacity() * sizeof(double) +
                   tracker.buffers_.capacity() * sizeof(RingDeque<ProvPair>) +
                   tracker.scratch_.capacity() * sizeof(ProvPair);
    for (const RingDeque<ProvPair>& buffer : tracker.buffers_) {
      bytes += buffer.capacity() * sizeof(ProvPair);
    }
    return bytes;
  }

  template <typename Order>
  static size_t Walk(const GenerationOrderTracker<Order>& tracker) {
    size_t bytes =
        tracker.totals_.capacity() * sizeof(double) +
        tracker.buffers_.capacity() * sizeof(BinaryHeap<ProvTriple, Order>) +
        tracker.scratch_.capacity() * sizeof(ProvTriple);
    for (const BinaryHeap<ProvTriple, Order>& buffer : tracker.buffers_) {
      bytes += buffer.capacity() * sizeof(ProvTriple);
    }
    return bytes;
  }
};

namespace {

constexpr double kTolerance = 1e-9;

// A small TIN exercising deficit generation, partial consumption,
// re-sends, and a self-loop.
Tin HandTin() {
  std::vector<Interaction> log = {
      {1, 0, 1.0, 5.0},  // 1 generates 5, sends to 0
      {2, 0, 2.0, 3.0},  // 2 generates 3, sends to 0
      {0, 3, 3.0, 4.0},  // 0 forwards a mix
      {3, 3, 4.0, 2.0},  // self-loop at 3
      {3, 4, 5.0, 6.0},  // exceeds 3's buffer: deficit generated at 3
      {4, 0, 6.0, 1.0},  // flows back
  };
  return Tin(5, std::move(log));
}

// Reference balances under any policy: selection changes who the
// quantity came from, never how much a vertex holds.
std::vector<double> ReferenceBalances(const Tin& tin) {
  NoProvenanceTracker baseline(tin.num_vertices());
  EXPECT_TRUE(baseline.ProcessAll(tin).ok());
  std::vector<double> balances(tin.num_vertices());
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    balances[v] = baseline.BufferTotal(v);
  }
  return balances;
}

void CheckConservation(Tracker* tracker, const Tin& tin,
                       const std::vector<double>& reference,
                       bool has_breakdown) {
  double buffered = 0.0;
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    const Buffer buffer = tracker->Provenance(v);
    EXPECT_NEAR(buffer.Total(), tracker->BufferTotal(v), kTolerance);
    EXPECT_NEAR(buffer.Total(), reference[v], 1e-6)
        << "vertex " << v << " balance diverged from the no-prov baseline";
    if (has_breakdown) {
      // Provenance totals must equal the net received quantity.
      EXPECT_NEAR(buffer.EntrySum(), buffer.Total(), 1e-6)
          << "entry sum diverged at vertex " << v;
      for (const ProvPair& entry : buffer.entries) {
        EXPECT_GE(entry.quantity, 0.0);
        EXPECT_LT(entry.origin, tin.num_vertices());
      }
    }
    buffered += tracker->BufferTotal(v);
  }
  // Conservation of flow: nothing buffered that was not generated.
  EXPECT_NEAR(buffered, tracker->total_generated(), 1e-6);
}

TEST(ConservationTest, AllPoliciesOnHandTin) {
  const Tin tin = HandTin();
  const std::vector<double> reference = ReferenceBalances(tin);
  for (const PolicyKind kind : AllPolicies()) {
    auto tracker = CreateTracker(kind, tin.num_vertices());
    ASSERT_NE(tracker, nullptr) << PolicyName(kind);
    ASSERT_TRUE(tracker->ProcessAll(tin).ok()) << PolicyName(kind);
    CheckConservation(tracker.get(), tin, reference,
                      kind != PolicyKind::kNoProvenance);
  }
}

TEST(ConservationTest, AllPoliciesOnGeneratedTin) {
  GeneratorConfig config;
  config.num_vertices = 40;
  config.num_interactions = 1500;
  config.src_skew = 1.1;
  config.dst_skew = 0.9;
  config.quantity_model = QuantityModel::kLogNormal;
  config.quantity_param1 = 1.0;
  config.quantity_param2 = 1.0;
  config.self_loop_fraction = 0.05;
  config.seed = 77;
  auto tin = Generate(config);
  ASSERT_TRUE(tin.ok());
  const std::vector<double> reference = ReferenceBalances(*tin);
  for (const PolicyKind kind : AllPolicies()) {
    auto tracker = CreateTracker(kind, tin->num_vertices());
    ASSERT_TRUE(tracker->ProcessAll(*tin).ok()) << PolicyName(kind);
    CheckConservation(tracker.get(), *tin, reference,
                      kind != PolicyKind::kNoProvenance);
    EXPECT_GT(tracker->MemoryUsage(), 0u);
    EXPECT_GT(tracker->total_generated(), 0.0);
  }
}

// Receipt-order semantics. Vertex 0 receives 5 units from origin 1,
// then 3 from origin 2, then forwards 4 to vertex 3.
TEST(ReceiptOrderTest, LifoSpendsNewestFirst) {
  std::vector<Interaction> log = {
      {1, 0, 1.0, 5.0}, {2, 0, 2.0, 3.0}, {0, 3, 3.0, 4.0}};
  const Tin tin(4, std::move(log));
  LifoTracker tracker(4);
  ASSERT_TRUE(tracker.ProcessAll(tin).ok());
  // LIFO forwards all of origin 2's 3 units plus 1 of origin 1's.
  std::map<VertexId, double> at3;
  for (const ProvPair& e : tracker.Provenance(3).entries) {
    at3[e.origin] += e.quantity;
  }
  EXPECT_NEAR(at3[2], 3.0, kTolerance);
  EXPECT_NEAR(at3[1], 1.0, kTolerance);
  // Vertex 0 keeps 4 units, all from origin 1.
  const Buffer at0 = tracker.Provenance(0);
  ASSERT_EQ(at0.entries.size(), 1u);
  EXPECT_EQ(at0.entries[0].origin, 1u);
  EXPECT_NEAR(at0.entries[0].quantity, 4.0, kTolerance);
}

TEST(ReceiptOrderTest, FifoSpendsOldestFirst) {
  std::vector<Interaction> log = {
      {1, 0, 1.0, 5.0}, {2, 0, 2.0, 3.0}, {0, 3, 3.0, 4.0}};
  const Tin tin(4, std::move(log));
  FifoTracker tracker(4);
  ASSERT_TRUE(tracker.ProcessAll(tin).ok());
  // FIFO forwards 4 of origin 1's units; origin 2's stay at 0.
  const Buffer at3 = tracker.Provenance(3);
  ASSERT_EQ(at3.entries.size(), 1u);
  EXPECT_EQ(at3.entries[0].origin, 1u);
  EXPECT_NEAR(at3.entries[0].quantity, 4.0, kTolerance);
  std::map<VertexId, double> at0;
  for (const ProvPair& e : tracker.Provenance(0).entries) {
    at0[e.origin] += e.quantity;
  }
  EXPECT_NEAR(at0[1], 1.0, kTolerance);
  EXPECT_NEAR(at0[2], 3.0, kTolerance);
}

TEST(ReceiptOrderTest, FifoSelfLoopRotatesBuffer) {
  // 0 holds [origin1: 2, origin2: 3]; a self-loop of 2 moves origin 1's
  // quantity from the front to the back.
  std::vector<Interaction> log = {
      {1, 0, 1.0, 2.0}, {2, 0, 2.0, 3.0}, {0, 0, 3.0, 2.0}};
  const Tin tin(3, std::move(log));
  FifoTracker tracker(3);
  ASSERT_TRUE(tracker.ProcessAll(tin).ok());
  const Buffer buffer = tracker.Provenance(0);
  ASSERT_EQ(buffer.entries.size(), 2u);
  EXPECT_EQ(buffer.entries[0].origin, 2u);  // now oldest
  EXPECT_EQ(buffer.entries[1].origin, 1u);  // rotated to newest
  EXPECT_NEAR(buffer.Total(), 5.0, kTolerance);
}

// Generation-order semantics. Receipt order at vertex 0 is origin 2
// (born t=2) then origin 1 (born t=1) — inverted relative to births —
// so LRB and FIFO disagree on what 0 forwards.
TEST(GenerationOrderTest, LrbSpendsOldestBornFirst) {
  std::vector<Interaction> log = {
      {1, 4, 1.0, 5.0},   // origin 1, born t=1, parked at 4
      {2, 0, 2.0, 3.0},   // origin 2, born t=2, straight to 0
      {4, 0, 3.0, 5.0},   // origin 1's quantity arrives at 0 last
      {0, 3, 4.0, 4.0}};  // 0 forwards 4
  const Tin tin(5, std::move(log));
  LrbTracker tracker(5);
  ASSERT_TRUE(tracker.ProcessAll(tin).ok());
  // Oldest birth (origin 1, t=1) is spent first despite arriving last.
  const Buffer at3 = tracker.Provenance(3);
  ASSERT_EQ(at3.entries.size(), 1u);
  EXPECT_EQ(at3.entries[0].origin, 1u);
  EXPECT_NEAR(at3.entries[0].quantity, 4.0, kTolerance);
  std::map<VertexId, double> at0;
  for (const ProvPair& e : tracker.Provenance(0).entries) {
    at0[e.origin] += e.quantity;
  }
  EXPECT_NEAR(at0[1], 1.0, kTolerance);
  EXPECT_NEAR(at0[2], 3.0, kTolerance);
}

TEST(GenerationOrderTest, MrbSpendsNewestBornFirst) {
  std::vector<Interaction> log = {
      {1, 4, 1.0, 5.0}, {2, 0, 2.0, 3.0}, {4, 0, 3.0, 5.0}, {0, 3, 4.0, 4.0}};
  const Tin tin(5, std::move(log));
  MrbTracker tracker(5);
  ASSERT_TRUE(tracker.ProcessAll(tin).ok());
  // Newest birth (origin 2, t=2) goes first, topped up from origin 1.
  std::map<VertexId, double> at3;
  for (const ProvPair& e : tracker.Provenance(3).entries) {
    at3[e.origin] += e.quantity;
  }
  EXPECT_NEAR(at3[2], 3.0, kTolerance);
  EXPECT_NEAR(at3[1], 1.0, kTolerance);
  const Buffer at0 = tracker.Provenance(0);
  ASSERT_EQ(at0.entries.size(), 1u);
  EXPECT_EQ(at0.entries[0].origin, 1u);
  EXPECT_NEAR(at0.entries[0].quantity, 4.0, kTolerance);
}

// Proportional semantics: a transfer moves the same fraction of every
// origin's share.
TEST(ProportionalTest, SparseSplitsProRata) {
  std::vector<Interaction> log = {
      {1, 0, 1.0, 6.0}, {2, 0, 2.0, 2.0}, {0, 3, 3.0, 4.0}};
  const Tin tin(4, std::move(log));
  ProportionalSparseTracker tracker(4);
  ASSERT_TRUE(tracker.ProcessAll(tin).ok());
  // 0 held {1: 6, 2: 2}; sending 4 of 8 moves exactly half of each.
  const Buffer at3 = tracker.Provenance(3);
  ASSERT_EQ(at3.entries.size(), 2u);
  EXPECT_EQ(at3.entries[0].origin, 1u);
  EXPECT_NEAR(at3.entries[0].quantity, 3.0, kTolerance);
  EXPECT_EQ(at3.entries[1].origin, 2u);
  EXPECT_NEAR(at3.entries[1].quantity, 1.0, kTolerance);
  const Buffer at0 = tracker.Provenance(0);
  ASSERT_EQ(at0.entries.size(), 2u);
  EXPECT_NEAR(at0.entries[0].quantity, 3.0, kTolerance);
  EXPECT_NEAR(at0.entries[1].quantity, 1.0, kTolerance);
}

TEST(ProportionalTest, WholeBufferMoveClearsSource) {
  std::vector<Interaction> log = {{1, 0, 1.0, 5.0}, {0, 2, 2.0, 5.0}};
  const Tin tin(3, std::move(log));
  ProportionalSparseTracker tracker(3);
  ASSERT_TRUE(tracker.ProcessAll(tin).ok());
  EXPECT_TRUE(tracker.Provenance(0).entries.empty());
  const Buffer at2 = tracker.Provenance(2);
  ASSERT_EQ(at2.entries.size(), 1u);
  EXPECT_EQ(at2.entries[0].origin, 1u);
  EXPECT_NEAR(at2.entries[0].quantity, 5.0, kTolerance);
  // The move is a swap into the empty destination; the global tuple
  // count must not drift.
  EXPECT_EQ(tracker.num_entries(), 1u);
}

TEST(ProportionalTest, WholeBufferMoveMergesIntoNonEmpty) {
  // Vertex 2 already holds origin-3 quantity when 0 moves everything in.
  std::vector<Interaction> log = {
      {3, 2, 1.0, 2.0}, {1, 0, 2.0, 5.0}, {0, 2, 3.0, 5.0}};
  const Tin tin(4, std::move(log));
  ProportionalSparseTracker tracker(4);
  ASSERT_TRUE(tracker.ProcessAll(tin).ok());
  EXPECT_TRUE(tracker.Provenance(0).entries.empty());
  const Buffer at2 = tracker.Provenance(2);
  ASSERT_EQ(at2.entries.size(), 2u);
  EXPECT_EQ(at2.entries[0].origin, 1u);
  EXPECT_NEAR(at2.entries[0].quantity, 5.0, kTolerance);
  EXPECT_EQ(at2.entries[1].origin, 3u);
  EXPECT_NEAR(at2.entries[1].quantity, 2.0, kTolerance);
  EXPECT_EQ(tracker.num_entries(), 2u);
}

TEST(ProportionalTest, MergeScaledMergesSortedLists) {
  SparseVector dst = {{1, 1.0}, {4, 2.0}, {9, 3.0}};
  const SparseVector src = {{0, 10.0}, {4, 10.0}, {12, 10.0}};
  MergeScaled(&dst, src, 0.5);
  ASSERT_EQ(dst.size(), 5u);
  EXPECT_EQ(dst[0].origin, 0u);
  EXPECT_DOUBLE_EQ(dst[0].quantity, 5.0);
  EXPECT_EQ(dst[1].origin, 1u);
  EXPECT_DOUBLE_EQ(dst[1].quantity, 1.0);
  EXPECT_EQ(dst[2].origin, 4u);
  EXPECT_DOUBLE_EQ(dst[2].quantity, 7.0);
  EXPECT_EQ(dst[3].origin, 9u);
  EXPECT_DOUBLE_EQ(dst[3].quantity, 3.0);
  EXPECT_EQ(dst[4].origin, 12u);
  EXPECT_DOUBLE_EQ(dst[4].quantity, 5.0);
}

TEST(ProportionalTest, MergeScaledIntoEmpty) {
  SparseVector dst;
  MergeScaled(&dst, {{2, 4.0}}, 0.25);
  ASSERT_EQ(dst.size(), 1u);
  EXPECT_DOUBLE_EQ(dst[0].quantity, 1.0);
  MergeScaled(&dst, {}, 0.5);  // empty src is a no-op
  EXPECT_EQ(dst.size(), 1u);
}

// Lists stay sized to their contents: every merge writes a fresh block
// and drained lists give theirs back, so the pool's reservation stays
// within a small factor of the stored tuples — on a heavy-tailed input
// whose hub lists are long (Bitcoin) and on a list-heavy one (Flights).
TEST(ProportionalTest, ListStorageStaysSizedToContents) {
  const std::pair<DatasetKind, double> inputs[] = {
      {DatasetKind::kBitcoin, 1.0}, {DatasetKind::kFlights, 10.0}};
  for (const auto& [kind, scale] : inputs) {
    auto tin = MakeDataset(kind, scale);
    ASSERT_TRUE(tin.ok());
    ProportionalSparseTracker tracker(tin->num_vertices());
    ASSERT_TRUE(tracker.ProcessAll(*tin).ok());
    EXPECT_LE(tracker.MemoryBytes(), 8 * tracker.MemoryUsage())
        << DatasetName(kind) << " x" << scale;
  }
}

TEST(ProportionalTest, SparseAndDenseAgree) {
  GeneratorConfig config;
  config.num_vertices = 48;
  config.num_interactions = 2000;
  config.src_skew = 1.0;
  config.dst_skew = 1.2;
  config.quantity_model = QuantityModel::kLogNormal;
  config.quantity_param1 = 0.5;
  config.quantity_param2 = 1.0;
  config.self_loop_fraction = 0.03;
  config.seed = 123;
  auto tin = Generate(config);
  ASSERT_TRUE(tin.ok());
  ProportionalSparseTracker sparse(config.num_vertices);
  ProportionalDenseTracker dense(config.num_vertices);
  ASSERT_TRUE(sparse.ProcessAll(*tin).ok());
  ASSERT_TRUE(dense.ProcessAll(*tin).ok());
  for (VertexId v = 0; v < config.num_vertices; ++v) {
    EXPECT_NEAR(sparse.BufferTotal(v), dense.BufferTotal(v), 1e-6);
    std::map<VertexId, double> sparse_map;
    for (const ProvPair& e : sparse.Provenance(v).entries) {
      sparse_map[e.origin] += e.quantity;
    }
    std::map<VertexId, double> dense_map;
    for (const ProvPair& e : dense.Provenance(v).entries) {
      dense_map[e.origin] += e.quantity;
    }
    for (const auto& [origin, quantity] : sparse_map) {
      EXPECT_NEAR(quantity, dense_map[origin], 1e-6)
          << "vertex " << v << " origin " << origin;
    }
    for (const auto& [origin, quantity] : dense_map) {
      EXPECT_NEAR(quantity, sparse_map[origin], 1e-6)
          << "vertex " << v << " origin " << origin;
    }
  }
  EXPECT_NEAR(sparse.total_generated(), dense.total_generated(), 1e-6);
}

TEST(TrackerTest, DeficitGeneratedOnEmptySend) {
  std::vector<Interaction> log = {{0, 1, 1.0, 7.5}};
  const Tin tin(2, std::move(log));
  for (const PolicyKind kind : AllPolicies()) {
    auto tracker = CreateTracker(kind, 2);
    ASSERT_TRUE(tracker->ProcessAll(tin).ok()) << PolicyName(kind);
    EXPECT_NEAR(tracker->total_generated(), 7.5, kTolerance);
    EXPECT_NEAR(tracker->BufferTotal(1), 7.5, kTolerance);
    EXPECT_NEAR(tracker->BufferTotal(0), 0.0, kTolerance);
    if (kind != PolicyKind::kNoProvenance) {
      const Buffer buffer = tracker->Provenance(1);
      ASSERT_EQ(buffer.entries.size(), 1u) << PolicyName(kind);
      EXPECT_EQ(buffer.entries[0].origin, 0u) << PolicyName(kind);
    }
  }
}

TEST(TrackerTest, RejectsInvalidInteractions) {
  for (const PolicyKind kind : AllPolicies()) {
    auto tracker = CreateTracker(kind, 3);
    EXPECT_FALSE(tracker->Process({5, 0, 1.0, 1.0}).ok()) << PolicyName(kind);
    EXPECT_FALSE(tracker->Process({0, 9, 1.0, 1.0}).ok()) << PolicyName(kind);
    EXPECT_FALSE(tracker->Process({0, 1, 1.0, -2.0}).ok()) << PolicyName(kind);
    EXPECT_FALSE(
        tracker->Process({0, 1, 1.0, std::nan("")}).ok())
        << PolicyName(kind);
  }
}

// MemoryBytes() is sampled after every StreamIngestor batch, so the
// receipt- and generation-order trackers keep their ring/heap capacity
// as a running total; it must equal the full walk after random streams,
// after a restore into a fresh tracker, and after a restore over state.
template <typename T>
void ExpectMemoryBytesMatchesWalk(const std::string& name) {
  for (const uint64_t seed : {3u, 17u, 29u}) {
    GeneratorConfig config;
    config.num_vertices = 50 + 20 * (seed % 4);
    config.num_interactions = 4000;
    config.src_skew = 1.2;
    config.dst_skew = 1.0;
    config.quantity_model = QuantityModel::kLogNormal;
    config.self_loop_fraction = 0.05;
    config.seed = seed;
    auto tin = Generate(config);
    ASSERT_TRUE(tin.ok());
    const auto& log = tin->interactions();
    const size_t n = tin->num_vertices();

    T tracker(n);
    EXPECT_EQ(tracker.MemoryBytes(), MemoryBytesReference::Walk(tracker));
    for (size_t i = 0; i < log.size(); ++i) {
      ASSERT_TRUE(tracker.Process(log[i]).ok());
      if (i % 97 == 0) {
        ASSERT_EQ(tracker.MemoryBytes(), MemoryBytesReference::Walk(tracker))
            << name << " seed " << seed << " after " << i + 1;
      }
    }
    EXPECT_EQ(tracker.MemoryBytes(), MemoryBytesReference::Walk(tracker))
        << name << " seed " << seed;

    std::vector<uint8_t> state;
    tracker.SaveState(&state);
    T fresh(n);
    ASSERT_TRUE(fresh.RestoreState(state).ok());
    EXPECT_EQ(fresh.MemoryBytes(), MemoryBytesReference::Walk(fresh))
        << name << " seed " << seed << " restored fresh";

    // Restoring an early snapshot over grown state: rings and heaps
    // keep or replace capacity, and the total must follow either way.
    T early(n);
    for (size_t i = 0; i < log.size() / 10; ++i) {
      ASSERT_TRUE(early.Process(log[i]).ok());
    }
    std::vector<uint8_t> early_state;
    early.SaveState(&early_state);
    ASSERT_TRUE(tracker.RestoreState(early_state).ok());
    EXPECT_EQ(tracker.MemoryBytes(), MemoryBytesReference::Walk(tracker))
        << name << " seed " << seed << " restored over state";
    for (size_t i = log.size() / 10; i < log.size(); ++i) {
      ASSERT_TRUE(tracker.Process(log[i]).ok());
    }
    EXPECT_EQ(tracker.MemoryBytes(), MemoryBytesReference::Walk(tracker))
        << name << " seed " << seed << " resumed";
  }
}

TEST(TrackerTest, MemoryBytesRunningTotalsMatchTheWalk) {
  ExpectMemoryBytesMatchesWalk<FifoTracker>("FIFO");
  ExpectMemoryBytesMatchesWalk<LifoTracker>("LIFO");
  ExpectMemoryBytesMatchesWalk<LrbTracker>("LRB");
  ExpectMemoryBytesMatchesWalk<MrbTracker>("MRB");
}

TEST(TrackerTest, PolicyNamesAreUnique) {
  const std::vector<PolicyKind> policies = AllPolicies();
  EXPECT_EQ(policies.size(), 7u);
  for (size_t i = 0; i < policies.size(); ++i) {
    for (size_t j = i + 1; j < policies.size(); ++j) {
      EXPECT_NE(PolicyName(policies[i]), PolicyName(policies[j]));
    }
  }
}

}  // namespace
}  // namespace tinprov
