#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/buffer.h"
#include "core/tin.h"
#include "util/random.h"

namespace tinprov {
namespace {

TEST(TinTest, SortsInteractionsByTime) {
  std::vector<Interaction> log = {
      {0, 1, 5.0, 1.0}, {1, 2, 2.0, 2.0}, {2, 0, 9.0, 3.0}, {0, 2, 1.0, 4.0}};
  const Tin tin(3, std::move(log));
  ASSERT_EQ(tin.num_interactions(), 4u);
  for (size_t i = 1; i < tin.interactions().size(); ++i) {
    EXPECT_LE(tin.interactions()[i - 1].t, tin.interactions()[i].t);
  }
  EXPECT_EQ(tin.interactions().front().quantity, 4.0);
  EXPECT_EQ(tin.interactions().back().quantity, 3.0);
}

TEST(TinTest, StableSortKeepsSimultaneousOrder) {
  std::vector<Interaction> log = {
      {0, 1, 1.0, 10.0}, {1, 2, 1.0, 20.0}, {2, 0, 1.0, 30.0}};
  const Tin tin(3, std::move(log));
  EXPECT_EQ(tin.interactions()[0].quantity, 10.0);
  EXPECT_EQ(tin.interactions()[1].quantity, 20.0);
  EXPECT_EQ(tin.interactions()[2].quantity, 30.0);
}

TEST(TinTest, VertexIndexCoversSourceAndDestination) {
  std::vector<Interaction> log = {
      {0, 1, 1.0, 1.0}, {1, 2, 2.0, 1.0}, {2, 2, 3.0, 1.0}};
  const Tin tin(3, std::move(log));
  size_t count = 0;
  const uint32_t* entries = tin.VertexInteractions(1, &count);
  ASSERT_EQ(count, 2u);  // receives at t=1, sends at t=2
  EXPECT_EQ(entries[0], 0u);
  EXPECT_EQ(entries[1], 1u);
  // Self-loop appears once, not twice.
  entries = tin.VertexInteractions(2, &count);
  ASSERT_EQ(count, 2u);
  // Out-of-range vertex yields an empty slice.
  EXPECT_EQ(tin.VertexInteractions(99, &count), nullptr);
  EXPECT_EQ(count, 0u);
}

TEST(TinTest, ComputeStats) {
  std::vector<Interaction> log = {
      {0, 1, 1.0, 2.0}, {0, 1, 2.0, 4.0}, {1, 1, 3.0, 6.0}};
  const Tin tin(4, std::move(log));
  const TinStats stats = tin.ComputeStats();
  EXPECT_EQ(stats.num_vertices, 4u);
  EXPECT_EQ(stats.num_interactions, 3u);
  EXPECT_EQ(stats.num_edges, 2u);  // (0,1) and (1,1)
  EXPECT_EQ(stats.num_self_loops, 1u);
  EXPECT_DOUBLE_EQ(stats.avg_quantity, 4.0);
  EXPECT_GT(tin.MemoryUsage(), 0u);
}

TEST(TinTest, EmptyTinIsValid) {
  const Tin tin(5, {});
  EXPECT_EQ(tin.num_interactions(), 0u);
  const TinStats stats = tin.ComputeStats();
  EXPECT_EQ(stats.avg_quantity, 0.0);
}

TEST(BinaryHeapTest, PopsInComparatorOrder) {
  BinaryHeap<ProvTriple, EarlierBirthFirst> heap;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    heap.Push({static_cast<VertexId>(i), rng.NextDouble(), 1.0});
  }
  double last = -1.0;
  while (!heap.empty()) {
    const ProvTriple top = heap.Pop();
    EXPECT_GE(top.birth, last);
    last = top.birth;
  }
}

TEST(BinaryHeapTest, LaterBirthFirstReverses) {
  BinaryHeap<ProvTriple, LaterBirthFirst> heap;
  heap.Push({0, 1.0, 1.0});
  heap.Push({1, 3.0, 1.0});
  heap.Push({2, 2.0, 1.0});
  EXPECT_EQ(heap.Pop().origin, 1u);
  EXPECT_EQ(heap.Pop().origin, 2u);
  EXPECT_EQ(heap.Pop().origin, 0u);
}

TEST(BinaryHeapTest, MutableTopPreservesInvariant) {
  BinaryHeap<ProvTriple, EarlierBirthFirst> heap;
  heap.Push({0, 1.0, 10.0});
  heap.Push({1, 2.0, 5.0});
  heap.MutableTop().quantity -= 4.0;  // split: birth key untouched
  EXPECT_DOUBLE_EQ(heap.Top().quantity, 6.0);
  EXPECT_EQ(heap.Pop().origin, 0u);
  EXPECT_EQ(heap.Pop().origin, 1u);
}

TEST(RingDequeTest, FifoAndLifoEnds) {
  RingDeque<int> deque;
  for (int i = 0; i < 5; ++i) deque.PushBack(i);
  EXPECT_EQ(deque.PopFront(), 0);
  EXPECT_EQ(deque.PopBack(), 4);
  EXPECT_EQ(deque.Front(), 1);
  EXPECT_EQ(deque.Back(), 3);
  EXPECT_EQ(deque.size(), 3u);
}

TEST(RingDequeTest, WrapsAroundOnGrowth) {
  RingDeque<int> deque;
  // Force head rotation, then growth across the wrap point.
  for (int i = 0; i < 8; ++i) deque.PushBack(i);
  for (int i = 0; i < 6; ++i) deque.PopFront();
  for (int i = 8; i < 40; ++i) deque.PushBack(i);
  ASSERT_EQ(deque.size(), 34u);
  for (int i = 6; i < 40; ++i) {
    ASSERT_EQ(deque.PopFront(), i);
  }
  EXPECT_TRUE(deque.empty());
}

TEST(RingDequeTest, RandomizedAgainstReference) {
  RingDeque<int> deque;
  std::vector<int> reference;
  Rng rng(13);
  for (int step = 0; step < 5000; ++step) {
    const uint64_t op = rng.NextBounded(3);
    if (op == 0 || reference.empty()) {
      const int value = static_cast<int>(rng.NextBounded(1000));
      deque.PushBack(value);
      reference.push_back(value);
    } else if (op == 1) {
      ASSERT_EQ(deque.PopFront(), reference.front());
      reference.erase(reference.begin());
    } else {
      ASSERT_EQ(deque.PopBack(), reference.back());
      reference.pop_back();
    }
    ASSERT_EQ(deque.size(), reference.size());
    // AppendTo keeps what `out` held and adds the ring front to back,
    // wrapped or not.
    std::vector<int> out = {-1};
    deque.AppendTo(&out);
    ASSERT_EQ(out.size(), reference.size() + 1);
    ASSERT_EQ(out.front(), -1);
    ASSERT_TRUE(std::equal(reference.begin(), reference.end(), out.begin() + 1));
  }
}

TEST(BufferTest, TotalsAndEntrySum) {
  Buffer buffer;
  buffer.entries = {{0, 1.5}, {3, 2.5}};
  buffer.total = 4.0;
  EXPECT_DOUBLE_EQ(buffer.Total(), 4.0);
  EXPECT_DOUBLE_EQ(buffer.EntrySum(), 4.0);
}

}  // namespace
}  // namespace tinprov
