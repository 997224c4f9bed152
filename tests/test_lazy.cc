// Lazy-layer semantics: replay-on-demand must be indistinguishable from
// eager tracking. Full lazy replay is checked bit-exactly against every
// factory-constructible tracker; sliced replay against full replay on
// the query vertex; History's restore-and-replay against full-prefix
// replay at arbitrary historical times (snapshot boundaries and
// pre-history included); and snapshot/restore must round-trip every
// policy's state bit-exactly, byte-for-byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analytics/experiment.h"
#include "datagen/generator.h"
#include "lazy/history.h"
#include "lazy/replay.h"
#include "policies/tracker.h"

namespace tinprov {
namespace {

// The same hand-built TIN as test_policies.cc: deficit generation,
// partial consumption, re-sends, and a self-loop over 6 interactions.
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

Tin GeneratedTin() {
  GeneratorConfig config;
  config.num_vertices = 60;
  config.num_interactions = 3000;
  config.src_skew = 1.1;
  config.dst_skew = 0.9;
  config.quantity_model = QuantityModel::kLogNormal;
  config.quantity_param1 = 1.0;
  config.quantity_param2 = 1.0;
  config.self_loop_fraction = 0.05;
  config.seed = 41;
  auto tin = Generate(config);
  EXPECT_TRUE(tin.ok());
  return std::move(tin).value();
}

// Mid-range scalable configuration; small enough that Budget shrinks and
// Windowed resets actually fire across snapshot boundaries.
ScalableParams TestParams() {
  ScalableParams params;
  params.window = 500;
  params.num_tracked = 10;
  params.num_groups = 7;
  params.budget.capacity = 8;
  params.budget.keep_fraction = 0.5;
  return params;
}

// Bit-exact comparison: replay-on-demand promises the *identical*
// result, not an approximation, so no tolerance anywhere.
void ExpectSameBuffer(const Buffer& expected, const Buffer& actual,
                      const std::string& context) {
  EXPECT_EQ(expected.total, actual.total) << context;
  ASSERT_EQ(expected.entries.size(), actual.entries.size()) << context;
  for (size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_TRUE(expected.entries[i] == actual.entries[i])
        << context << " entry " << i << ": (" << expected.entries[i].origin
        << ", " << expected.entries[i].quantity << ") vs ("
        << actual.entries[i].origin << ", " << actual.entries[i].quantity
        << ")";
  }
}

std::unique_ptr<Tracker> EagerPrefix(const TrackerFactory& factory,
                                     const Tin& tin, size_t prefix) {
  std::unique_ptr<Tracker> tracker = factory();
  EXPECT_NE(tracker, nullptr);
  const auto& log = tin.interactions();
  for (size_t i = 0; i < prefix && i < log.size(); ++i) {
    EXPECT_TRUE(tracker->Process(log[i]).ok());
  }
  return tracker;
}

std::vector<std::string> AllPolicyNames() {
  std::vector<std::string> names;
  for (const PolicyKind kind : AllPolicies()) {
    names.emplace_back(PolicyName(kind));
  }
  return names;
}

bool NotAlnum(char c) { return !std::isalnum(static_cast<unsigned char>(c)); }

std::string SanitizeName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  name.erase(std::remove_if(name.begin(), name.end(), NotAlnum), name.end());
  return name;
}

// ---------------------------------------------------------------------
// (a) Full lazy replay reproduces eager tracking exactly, for every
// factory name (all seven policies and all four scalable trackers).

class LazyFullReplayTest : public ::testing::TestWithParam<std::string> {};

TEST_P(LazyFullReplayTest, MatchesEagerBitExactly) {
  const Tin tin = GeneratedTin();
  const ScalableParams params = TestParams();
  auto eager = TrackerRegistry::Global().Create({GetParam(), params}, tin);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  ASSERT_TRUE((*eager)->ProcessAll(tin).ok());

  auto factory = TrackerRegistry::Global().Factory({GetParam(), params}, tin);
  ASSERT_TRUE(factory.ok()) << factory.status().ToString();
  LazyReplayEngine lazy(tin, *factory);
  for (VertexId v = 0; v < tin.num_vertices(); v += 7) {
    auto buffer = lazy.Provenance(v);
    ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
    ExpectSameBuffer((*eager)->Provenance(v), *buffer,
                     GetParam() + " vertex " + std::to_string(v));
    EXPECT_EQ(lazy.last_stats().interactions_replayed, tin.num_interactions());
  }
}

INSTANTIATE_TEST_SUITE_P(AllFactoryNames, LazyFullReplayTest,
                         ::testing::ValuesIn(TrackerRegistry::Global().Names()),
                         SanitizeName);

// ---------------------------------------------------------------------
// (b) Sliced replay equals full replay on the query vertex, replaying
// at most as many interactions.

class SlicedReplayTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SlicedReplayTest, EqualsFullReplayOnQueryVertex) {
  const Tin tin = GeneratedTin();
  auto kind = PolicyKindFromName(GetParam());
  ASSERT_TRUE(kind.ok());
  LazyReplayEngine lazy(tin, *kind);
  for (VertexId v = 0; v < tin.num_vertices(); v += 11) {
    auto full = lazy.Provenance(v);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    const size_t full_count = lazy.last_stats().interactions_replayed;
    auto sliced = lazy.ProvenanceSliced(v);
    ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
    ExpectSameBuffer(*full, *sliced,
                     GetParam() + " vertex " + std::to_string(v));
    EXPECT_LE(lazy.last_stats().interactions_replayed, full_count);
    EXPECT_LE(lazy.last_stats().cone_vertices, tin.num_vertices());
    EXPECT_GE(lazy.last_stats().cone_vertices, 1u);
  }
}

// Every PolicyKind name (the scalable trackers are covered separately:
// sliced replay is exact for any tracker whose behaviour at a vertex
// depends only on cone-vertex histories, which excludes Windowed's
// global reset counter).
INSTANTIATE_TEST_SUITE_P(PolicyNames, SlicedReplayTest,
                         ::testing::ValuesIn(AllPolicyNames()), SanitizeName);

TEST(SlicedReplayScalableTest, VertexLocalScalableTrackersAreExact) {
  const Tin tin = GeneratedTin();
  const ScalableParams params = TestParams();
  const char* names[] = {"Selective", "Grouped", "Budget"};
  for (const char* name : names) {
    auto factory = TrackerRegistry::Global().Factory({name, params}, tin);
    ASSERT_TRUE(factory.ok());
    LazyReplayEngine lazy(tin, *factory);
    for (VertexId v = 0; v < tin.num_vertices(); v += 13) {
      auto full = lazy.Provenance(v);
      ASSERT_TRUE(full.ok());
      auto sliced = lazy.ProvenanceSliced(v);
      ASSERT_TRUE(sliced.ok());
      ExpectSameBuffer(*full, *sliced,
                       std::string(name) + " vertex " + std::to_string(v));
    }
  }
}

TEST(InfluenceConeTest, HandTinConesAreExactAndMinimalityShows) {
  const Tin tin = HandTin();
  size_t cone_vertices = 0;
  // Vertex 1 only ever sends: its cone is its single outflow.
  std::vector<uint32_t> cone = BackwardInfluenceCone(tin, 1, &cone_vertices);
  EXPECT_EQ(cone, (std::vector<uint32_t>{0}));
  EXPECT_EQ(cone_vertices, 1u);
  // Vertex 0 receives from everyone, directly or transitively: the cone
  // is the whole log.
  cone = BackwardInfluenceCone(tin, 0, &cone_vertices);
  EXPECT_EQ(cone, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(cone_vertices, 5u);
  // Out-of-range query vertices yield an empty cone.
  cone = BackwardInfluenceCone(tin, 99, &cone_vertices);
  EXPECT_TRUE(cone.empty());
  EXPECT_EQ(cone_vertices, 0u);
}

TEST(InfluenceConeTest, SlicedMatchesFullAtEveryHandTinVertex) {
  const Tin tin = HandTin();
  for (const PolicyKind kind : AllPolicies()) {
    LazyReplayEngine lazy(tin, kind);
    for (VertexId v = 0; v < tin.num_vertices(); ++v) {
      auto full = lazy.Provenance(v);
      ASSERT_TRUE(full.ok());
      auto sliced = lazy.ProvenanceSliced(v);
      ASSERT_TRUE(sliced.ok());
      ExpectSameBuffer(*full, *sliced,
                       std::string(PolicyName(kind)) + " vertex " +
                           std::to_string(v));
    }
  }
}

// ---------------------------------------------------------------------
// Historical prefix queries on the engine itself.

TEST(LazyPrefixTest, HistoricalQueryEqualsEagerPrefixReplay) {
  const Tin tin = GeneratedTin();
  const TrackerFactory factory = [n = tin.num_vertices()] {
    return CreateTracker(PolicyKind::kFifo, n);
  };
  LazyReplayEngine lazy(tin, factory);
  const auto& log = tin.interactions();
  for (const size_t prefix :
       {size_t{0}, size_t{1}, log.size() / 3, log.size() - 1, log.size()}) {
    const Timestamp t = prefix == 0 ? log.front().t - 1.0 : log[prefix - 1].t;
    const size_t expected_prefix = PrefixLength(tin, t);
    const auto eager = EagerPrefix(factory, tin, expected_prefix);
    for (const VertexId v : {VertexId{0}, VertexId{17}, VertexId{59}}) {
      auto buffer = lazy.Provenance(v, t);
      ASSERT_TRUE(buffer.ok());
      ExpectSameBuffer(eager->Provenance(v), *buffer,
                       "prefix " + std::to_string(expected_prefix) +
                           " vertex " + std::to_string(v));
      EXPECT_EQ(lazy.last_stats().interactions_replayed, expected_prefix);
    }
  }
}

TEST(LazyPrefixTest, TimeBeforeFirstInteractionYieldsEmptyBuffer) {
  const Tin tin = HandTin();
  LazyReplayEngine lazy(tin, PolicyKind::kLifo);
  auto buffer = lazy.Provenance(0, 0.5);
  ASSERT_TRUE(buffer.ok());
  EXPECT_EQ(buffer->total, 0.0);
  EXPECT_TRUE(buffer->entries.empty());
  EXPECT_EQ(lazy.last_stats().interactions_replayed, 0u);
}

TEST(LazyEngineTest, RejectsOutOfRangeVertices) {
  const Tin tin = HandTin();
  LazyReplayEngine lazy(tin, PolicyKind::kFifo);
  EXPECT_EQ(lazy.Provenance(99).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(lazy.Provenance(99, 3.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(lazy.ProvenanceSliced(99).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LazyEngineTest, FactoryBuildsIndependentTrackers) {
  const Tin tin = HandTin();
  auto factory =
      TrackerRegistry::Global().Factory({"FIFO", ScalableParams{}}, tin);
  ASSERT_TRUE(factory.ok());
  std::unique_ptr<Tracker> a = (*factory)();
  std::unique_ptr<Tracker> b = (*factory)();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(a->ProcessAll(tin).ok());
  // b saw nothing: per-query trackers must not share state.
  EXPECT_EQ(b->BufferTotal(0), 0.0);
  EXPECT_GT(a->BufferTotal(0), 0.0);
}

// ---------------------------------------------------------------------
// (c) A History answers at every prefix identically to full-prefix
// replay, for every factory name, whichever rule cut its snapshots.

enum class CutRule { kEvery97, kLogVolume };

// Logs `tin` into a History beside a live tracker, cutting a snapshot
// after every 97th interaction (prime: boundaries align with nothing)
// or wherever serve's log-volume rule would, seeded like a fresh
// service with the empty state as the last cut.
History RecordHistory(const TrackerFactory& factory, const Tin& tin,
                      CutRule rule) {
  History history;
  std::unique_ptr<Tracker> tracker = factory();
  auto fresh = std::make_shared<std::vector<uint8_t>>();
  tracker->SaveState(fresh.get());
  history.Seed({}, {}, {0, std::move(fresh)});
  for (const Interaction& interaction : tin.interactions()) {
    EXPECT_TRUE(tracker->Process(interaction).ok());
    history.Append(interaction);
    const size_t prefix = history.size();
    if (rule == CutRule::kEvery97 ? prefix % 97 == 0
                                  : history.SnapshotDue(prefix)) {
      auto image = std::make_shared<std::vector<uint8_t>>();
      tracker->SaveState(image.get());
      history.Cut(prefix, std::move(image));
    }
  }
  return history;
}

class HistoryReplayTest
    : public ::testing::TestWithParam<std::tuple<std::string, CutRule>> {};

TEST_P(HistoryReplayTest, MatchesFullPrefixReplayEverywhere) {
  const auto& [name, rule] = GetParam();
  const Tin tin = GeneratedTin();
  auto factory = TrackerRegistry::Global().Factory({name, TestParams()}, tin);
  ASSERT_TRUE(factory.ok());
  const History history = RecordHistory(*factory, tin, rule);
  const History::View view = history.Publish();
  const auto& log = tin.interactions();
  ASSERT_EQ(view.size(), log.size());
  const std::vector<StateSnapshot>& snapshots = view.snapshots();
  ASSERT_GE(snapshots.size(), 2u) << name;
  if (rule == CutRule::kEvery97) {
    EXPECT_EQ(snapshots.size(), log.size() / 97);
  }

  // Targets before history (empty state), inside the first delta, at
  // and just past each snapshot, and at the end of the stream; then
  // the prefixes of timestamps before, inside and after the log.
  std::vector<size_t> targets = {0, 1, snapshots.front().prefix - 1,
                                 log.size()};
  for (const StateSnapshot& snapshot : snapshots) {
    targets.push_back(snapshot.prefix);
    targets.push_back(snapshot.prefix + 1);
  }
  for (const Timestamp t : {log.front().t - 1.0, log.front().t,
                            log[log.size() / 2].t, log.back().t,
                            log.back().t + 1.0}) {
    EXPECT_EQ(view.UpperBound(t), PrefixLength(tin, t)) << "t=" << t;
    targets.push_back(view.UpperBound(t));
  }
  std::sort(targets.begin(), targets.end());

  // One eager tracker walks the targets in order.
  std::unique_ptr<Tracker> eager = (*factory)();
  size_t applied = 0;
  for (const size_t target : targets) {
    ASSERT_LE(target, log.size());
    for (; applied < target; ++applied) {
      ASSERT_TRUE(eager->Process(log[applied]).ok());
    }
    const std::string context = name + " target " + std::to_string(target);
    size_t replayed = 0;
    auto tracker = view.Replay(*factory, target, &replayed);
    ASSERT_TRUE(tracker.ok()) << tracker.status().ToString();
    // Replay starts at the newest snapshot at or below the target: a
    // target on a snapshot replays nothing, and one below the first
    // snapshot starts from a fresh tracker, replaying its whole prefix.
    const auto newest = std::upper_bound(
        snapshots.begin(), snapshots.end(), target,
        [](size_t p, const StateSnapshot& s) { return p < s.prefix; });
    const size_t start = newest == snapshots.begin() ? 0 : (newest - 1)->prefix;
    EXPECT_EQ(replayed, target - start) << context;
    std::vector<uint8_t> expected_state;
    std::vector<uint8_t> actual_state;
    eager->SaveState(&expected_state);
    (*tracker)->SaveState(&actual_state);
    EXPECT_EQ(expected_state, actual_state) << context;
    for (const VertexId v : {VertexId{0}, VertexId{23}, VertexId{59}}) {
      ExpectSameBuffer(eager->Provenance(v), (*tracker)->Provenance(v),
                       context + " vertex " + std::to_string(v));
    }
  }

  // Both ends of that rule, stated directly.
  size_t replayed = 1;
  ASSERT_TRUE(view.Replay(*factory, snapshots.back().prefix, &replayed).ok());
  EXPECT_EQ(replayed, 0u) << name;
  const size_t below_first = snapshots.front().prefix - 1;
  ASSERT_TRUE(view.Replay(*factory, below_first, &replayed).ok());
  EXPECT_EQ(replayed, below_first) << name;
}

std::string HistoryReplayName(
    const ::testing::TestParamInfo<std::tuple<std::string, CutRule>>& info) {
  std::string name = std::get<0>(info.param);
  name.erase(std::remove_if(name.begin(), name.end(), NotAlnum), name.end());
  const bool every97 = std::get<1>(info.param) == CutRule::kEvery97;
  return name + (every97 ? "_Every97" : "_LogVolume");
}

INSTANTIATE_TEST_SUITE_P(
    AllFactoryNames, HistoryReplayTest,
    ::testing::Combine(::testing::ValuesIn(TrackerRegistry::Global().Names()),
                       ::testing::Values(CutRule::kEvery97,
                                         CutRule::kLogVolume)),
    HistoryReplayName);

// ---------------------------------------------------------------------
// (d) Snapshot/restore round-trips every policy's state bit-exactly.

class SnapshotRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SnapshotRoundTripTest, SaveRestoreSaveIsByteIdentical) {
  const Tin tin = GeneratedTin();
  const ScalableParams params = TestParams();
  auto factory = TrackerRegistry::Global().Factory({GetParam(), params}, tin);
  ASSERT_TRUE(factory.ok());
  const size_t half = tin.num_interactions() / 2;

  std::unique_ptr<Tracker> original = EagerPrefix(*factory, tin, half);
  std::vector<uint8_t> saved;
  original->SaveState(&saved);
  EXPECT_FALSE(saved.empty());

  std::unique_ptr<Tracker> restored = (*factory)();
  ASSERT_TRUE(restored->RestoreState(saved).ok());
  std::vector<uint8_t> resaved;
  restored->SaveState(&resaved);
  EXPECT_EQ(saved, resaved) << GetParam() << ": restore is not byte-identical";

  // Resumed replay must stay bit-exact through the end of the stream.
  const auto& log = tin.interactions();
  for (size_t i = half; i < log.size(); ++i) {
    ASSERT_TRUE(original->Process(log[i]).ok());
    ASSERT_TRUE(restored->Process(log[i]).ok());
  }
  EXPECT_EQ(original->total_generated(), restored->total_generated());
  EXPECT_EQ(original->MemoryUsage(), restored->MemoryUsage());
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    EXPECT_EQ(original->BufferTotal(v), restored->BufferTotal(v));
    ExpectSameBuffer(original->Provenance(v), restored->Provenance(v),
                     GetParam() + " vertex " + std::to_string(v));
  }
}

TEST_P(SnapshotRoundTripTest, RejectsCorruptSnapshots) {
  const Tin tin = HandTin();
  const ScalableParams params = TestParams();
  auto factory = TrackerRegistry::Global().Factory({GetParam(), params}, tin);
  ASSERT_TRUE(factory.ok());
  std::unique_ptr<Tracker> tracker = EagerPrefix(*factory, tin, 4);
  std::vector<uint8_t> saved;
  tracker->SaveState(&saved);

  std::unique_ptr<Tracker> target = (*factory)();
  // Truncation anywhere must fail cleanly, never read out of bounds.
  EXPECT_FALSE(target->RestoreState(saved.data(), saved.size() - 1).ok());
  EXPECT_FALSE(target->RestoreState(saved.data(), 3).ok());
  EXPECT_FALSE(target->RestoreState(saved.data(), 0).ok());
  // Trailing bytes mean the snapshot came from a different layout.
  std::vector<uint8_t> padded = saved;
  padded.push_back(0);
  EXPECT_FALSE(target->RestoreState(padded).ok());
  // A clean restore still succeeds afterwards.
  EXPECT_TRUE(target->RestoreState(saved).ok());
}

INSTANTIATE_TEST_SUITE_P(AllFactoryNames, SnapshotRoundTripTest,
                         ::testing::ValuesIn(TrackerRegistry::Global().Names()),
                         SanitizeName);

TEST(SnapshotMismatchTest, RejectsWrongVertexCount) {
  const Tin tin = HandTin();
  std::unique_ptr<Tracker> small = CreateTracker(PolicyKind::kFifo, 5);
  ASSERT_TRUE(small->ProcessAll(tin).ok());
  std::vector<uint8_t> saved;
  small->SaveState(&saved);
  std::unique_ptr<Tracker> large = CreateTracker(PolicyKind::kFifo, 6);
  const Status status = large->RestoreState(saved);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tinprov
