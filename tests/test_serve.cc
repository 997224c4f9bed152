// Serve-layer semantics: snapshot-isolated queries over a live ingest
// must be indistinguishable from stop-the-world replay. Every answer
// carries the epoch (prefix, watermark) it was resolved against, and
// replaying exactly that prefix through an identically configured
// tracker must reproduce the answer bit-exactly — while the writer was
// publishing, under concurrent readers, across epoch-ring wraparound,
// and across a durable restart, which seeds the service's history.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analytics/registry.h"
#include "datagen/generator.h"
#include "lazy/replay.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "parallel/scheduler.h"
#include "serve/service.h"
#include "storage/env.h"
#include "stream/ingest.h"
#include "stream/interaction_stream.h"

namespace tinprov {

// Reads the live tracker's SaveState bytes — valid whenever no writer
// thread runs (before Start(), or after WaitIngest()).
class ProvenanceServiceTestPeer {
 public:
  static std::vector<uint8_t> LiveState(const ProvenanceService& service) {
    std::vector<uint8_t> state;
    service.live_tracker_->SaveState(&state);
    return state;
  }
};

namespace {

Tin GeneratedTin(size_t num_interactions = 3000) {
  GeneratorConfig config;
  config.num_vertices = 60;
  config.num_interactions = num_interactions;
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

ScalableParams TestParams() {
  ScalableParams params;
  params.window = 500;
  params.num_tracked = 10;
  params.num_groups = 7;
  params.budget.capacity = 8;
  params.budget.keep_fraction = 0.5;
  return params;
}

TrackerSpec StreamingSpec(const std::string& name) {
  return {name, TestParams(), TrackerMode::kStreaming};
}

// Bit-exact: the serve layer promises the identical result, never an
// approximation, so no tolerance anywhere.
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

// Bit for bit, beyond ExpectSameBuffer: a -0.0 total differs from 0.0.
bool SameBits(const Buffer& expected, const Buffer& actual) {
  if (std::memcmp(&expected.total, &actual.total, sizeof(double)) != 0 ||
      expected.entries.size() != actual.entries.size()) {
    return false;
  }
  for (size_t i = 0; i < expected.entries.size(); ++i) {
    if (expected.entries[i].origin != actual.entries[i].origin ||
        std::memcmp(&expected.entries[i].quantity, &actual.entries[i].quantity,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// Stop-the-world reference: a fresh identically configured tracker
// replayed over exactly `prefix` interactions of the log.
std::unique_ptr<Tracker> ReferencePrefix(const TrackerSpec& spec,
                                         const Tin& tin, size_t prefix) {
  auto factory = TrackerRegistry::Global().Factory(spec, tin.Stats());
  EXPECT_TRUE(factory.ok()) << factory.status().ToString();
  std::unique_ptr<Tracker> tracker = (*factory)();
  const auto& log = tin.interactions();
  for (size_t i = 0; i < prefix && i < log.size(); ++i) {
    EXPECT_TRUE(tracker->Process(log[i]).ok());
  }
  return tracker;
}

std::string SanitizeName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  name.erase(std::remove_if(name.begin(), name.end(),
                            [](char c) {
                              return !std::isalnum(
                                  static_cast<unsigned char>(c));
                            }),
             name.end());
  return name;
}

// A durability directory under the working directory, removed with
// everything in it on destruction.
class DurableDir {
 public:
  explicit DurableDir(const std::string& tag)
      : path_("tinprov_serve_" + tag + "_" +
              std::to_string(static_cast<unsigned>(::getpid()))) {}

  ~DurableDir() {
    auto names = storage::Env::Posix()->ListDir(path_);
    if (names.ok()) {
      for (const std::string& name : *names) {
        (void)storage::Env::Posix()->DeleteFile(
            storage::JoinPath(path_, name));
      }
    }
    ::rmdir(path_.c_str());
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Pulls the unsigned integer following `"key":` out of hand-built JSON.
uint64_t JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << json;
  if (pos == std::string::npos) return ~uint64_t{0};
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

// ---------------------------------------------------------------------
// (a) The drained service answers exactly like stop-the-world replay,
// for policies and scalable trackers alike.

class ServeFinalStateTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeFinalStateTest, FinalEpochMatchesStopTheWorld) {
  const Tin tin = GeneratedTin();
  ServeOptions options;
  options.epoch_interval = 700;  // not a divisor of the stream length
  auto service =
      ProvenanceService::Create(StreamingSpec(GetParam()), tin.Stats(),
                                options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  const EpochInfo epoch = (*service)->LatestEpoch();
  EXPECT_EQ(epoch.prefix, tin.num_interactions());
  EXPECT_EQ(epoch.watermark, tin.interactions().back().t);
  EXPECT_EQ((*service)->ingest_stats().interactions, tin.num_interactions());

  const auto reference =
      ReferencePrefix(StreamingSpec(GetParam()), tin, tin.num_interactions());
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    QueryResult result = (*service)->Provenance(v);
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.epoch.prefix, tin.num_interactions());
    ExpectSameBuffer(reference->Provenance(v), result.buffer,
                     GetParam() + " vertex " + std::to_string(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Names, ServeFinalStateTest,
                         ::testing::Values("FIFO", "LRB", "Prop-sparse",
                                           "Windowed", "Budget", "Selective",
                                           "Grouped"),
                         SanitizeName);

// Every published epoch's answer table — not just the final one — must
// equal stop-the-world replay of that epoch's prefix. Epochs are
// published incrementally (only the vertices changed since the last
// one are re-read), so a tracker whose Process() reaches beyond the
// endpoints without reporting it through WideChanges() fails here. The
// stream is tie-free and the ring holds every epoch, so querying each
// epoch's watermark must hit exactly that epoch's table with no replay.
class ServeEpochTableTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeEpochTableTest, EveryEpochMatchesStopTheWorld) {
  const Tin generated = GeneratedTin(3100);
  std::vector<Interaction> log = generated.interactions();
  for (size_t i = 0; i < log.size(); ++i) log[i].t = static_cast<Timestamp>(i);
  const DatasetStats stats{generated.num_vertices(), log.size()};

  TrackerSpec spec = StreamingSpec(GetParam());
  spec.params.window = 70;  // Windowed resets land mid-epoch
  ServeOptions options;
  options.epoch_interval = 200;  // 3100 = 15 full epochs + a partial one
  options.ingest_batch = 40;
  options.ring_size = 32;  // more than the 17 epochs published
  auto service = ProvenanceService::Create(spec, stats, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE((*service)
                  ->Start(std::make_unique<VectorStream>(stats.num_vertices,
                                                         log))
                  .ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  std::vector<size_t> prefixes;
  for (size_t p = 0; p < log.size(); p += options.epoch_interval) {
    prefixes.push_back(p);
  }
  prefixes.push_back(log.size());
  ASSERT_EQ((*service)->LatestEpoch().seq + 1, prefixes.size());

  auto factory = TrackerRegistry::Global().Factory(spec, stats);
  ASSERT_TRUE(factory.ok());
  std::unique_ptr<Tracker> reference = (*factory)();
  size_t applied = 0;
  for (const size_t prefix : prefixes) {
    for (; applied < prefix; ++applied) {
      ASSERT_TRUE(reference->Process(log[applied]).ok());
    }
    // Epoch 0's watermark precedes every interaction.
    const Timestamp t = prefix == 0 ? -1.0 : log[prefix - 1].t;
    for (VertexId v = 0; v < stats.num_vertices; ++v) {
      const QueryResult result = (*service)->Provenance(v, t);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      ASSERT_EQ(result.epoch.prefix, prefix);
      ASSERT_EQ(result.replayed_interactions, 0u);
      ExpectSameBuffer(reference->Provenance(v), result.buffer,
                       GetParam() + " prefix " + std::to_string(prefix) +
                           " vertex " + std::to_string(v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Names, ServeEpochTableTest,
    ::testing::ValuesIn(TrackerRegistry::Global().Names()), SanitizeName);

// Multi-branch answer tables. GeneratedTin's 60 vertices fit in one
// trie leaf; this input spans two full branches (a branch holds 64
// leaves of 64 vertices) and part of a third, so a publish path-copies
// leaves under several branches. Its stream runs in epoch-aligned
// phases over vertices at the leaf boundary (63/64), the branch
// boundary (4095/4096) and the maximum id. Every quantity is a multiple
// of 1/4, so sums are exact and a drained vertex is exactly empty.
constexpr size_t kMultiBranchPhase = 48;  // interactions; the epoch interval
constexpr VertexId kMultiBranchVertices = 2 * 4096 + 3;
constexpr VertexId kToggled[] = {63, 64, 4095, 4096};
// Idle until phase 3, so the restart after phase 0 can recover its
// total as -0.0, which it keeps until it fills in phase 3 and drains in
// phase 4.
constexpr VertexId kSignedZero = 4500;

struct MultiBranchInput {
  DatasetStats stats;
  std::vector<Interaction> log;
};

// Phase 0 is traffic among busy vertices. The toggled vertices fill
// (phase 1), drain (2), fill (3) and drain (4) again, each from its own
// otherwise idle partner (v + 1000) and into a busy vertex. Busy
// traffic pads every phase. `extra_phases` more phases of busy traffic
// follow; the last of them is half-length, so the final epoch is
// partial.
MultiBranchInput MultiBranchLog(size_t extra_phases) {
  const VertexId last = kMultiBranchVertices - 1;
  const std::vector<VertexId> busy = {0,    1,    62,   65,   127,  128,
                                      4094, 4097, 6000, 8191, 8192, last};
  std::mt19937_64 rng(7);
  std::vector<Interaction> log;
  auto add = [&log](VertexId src, VertexId dst, double quantity) {
    log.push_back({src, dst, static_cast<Timestamp>(log.size()), quantity});
  };
  const size_t phases = 5 + extra_phases;
  for (size_t phase = 0; phase < phases; ++phase) {
    for (const VertexId v : kToggled) {
      if (phase == 1 || phase == 3) add(v + 1000, v, 2.5);
      if (phase == 2 || phase == 4) add(v, busy[v % busy.size()], 2.5);
    }
    if (phase == 3) add(kSignedZero + 1000, kSignedZero, 1.0);
    if (phase == 4) add(kSignedZero, busy[0], 1.0);
    const bool partial = extra_phases > 0 && phase + 1 == phases;
    const size_t end =
        phase * kMultiBranchPhase +
        (partial ? kMultiBranchPhase / 2 : kMultiBranchPhase);
    while (log.size() < end) {
      const VertexId src = busy[rng() % busy.size()];
      const VertexId dst = busy[rng() % busy.size()];
      add(src, dst, 0.25 * static_cast<double>(1 + rng() % 32));
    }
  }
  return {{kMultiBranchVertices, log.size()}, std::move(log)};
}

// Every epoch of a multi-branch table equals stop-the-world replay bit
// for bit. The service restarts from a durable directory holding phase
// 0 and a snapshot of it in which kSignedZero's total is -0.0, so the
// recovered epoch installs every vertex at once and one answer is a
// signed zero that must not collapse into the empty answer.
class ServeMultiBranchTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeMultiBranchTest, EveryEpochMatchesStopTheWorldBitForBit) {
  const MultiBranchInput input = MultiBranchLog(/*extra_phases=*/2);
  const std::vector<Interaction>& log = input.log;
  TrackerSpec spec = StreamingSpec(GetParam());
  spec.params.window = 100;  // Windowed re-reads every vertex mid-stream
  auto factory = TrackerRegistry::Global().Factory(spec, input.stats);
  ASSERT_TRUE(factory.ok()) << factory.status().ToString();

  // Every tracker's SaveState image opens with num_vertices and
  // total_generated, then its per-vertex totals (little-endian doubles
  // on the hosts this runs on): set the sign bit of kSignedZero's.
  const size_t restart = kMultiBranchPhase;
  std::unique_ptr<Tracker> reference = (*factory)();
  for (size_t i = 0; i < restart; ++i) {
    ASSERT_TRUE(reference->Process(log[i]).ok());
  }
  std::vector<uint8_t> image;
  reference->SaveState(&image);
  const size_t sign_byte = sizeof(uint64_t) + sizeof(double) +
                           (kSignedZero + 1) * sizeof(double) - 1;
  ASSERT_LT(sign_byte, image.size());
  ASSERT_EQ(image[sign_byte], 0);
  image[sign_byte] = 0x80;
  ASSERT_TRUE(reference->RestoreState(image).ok());
  ASSERT_TRUE(std::signbit(reference->Provenance(kSignedZero).total))
      << GetParam() << ": SaveState layout changed";

  DurableDir dir("multi_branch");
  {
    auto seed = storage::DurableLog::Open(storage::Env::Posix(), dir.path(),
                                          0, 0);
    ASSERT_TRUE(seed.ok()) << seed.status().ToString();
    ASSERT_TRUE((*seed)->Append(log.data(), restart).ok());
    ASSERT_TRUE(
        (*seed)->WriteSnapshot(restart, log[restart - 1].t, image).ok());
    ASSERT_TRUE((*seed)->Seal().ok());
  }
  ServeOptions options;
  options.epoch_interval = kMultiBranchPhase;
  options.ingest_batch = 16;
  options.ring_size = 16;  // more than the 7 epochs published
  options.durability.dir = dir.path();
  options.durability.log.sync_each_append = false;
  auto service = ProvenanceService::Create(spec, input.stats, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_EQ((*service)->LatestEpoch().prefix, restart);
  ASSERT_TRUE((*service)
                  ->Start(std::make_unique<VectorStream>(
                      kMultiBranchVertices,
                      std::vector<Interaction>(log.begin() + restart,
                                               log.end())))
                  .ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  std::vector<size_t> prefixes;
  for (size_t p = restart; p < log.size(); p += kMultiBranchPhase) {
    prefixes.push_back(p);
  }
  prefixes.push_back(log.size());
  ASSERT_EQ((*service)->LatestEpoch().seq + 1, prefixes.size());

  std::vector<bool> toggled_empty;
  size_t applied = restart;
  for (const size_t prefix : prefixes) {
    for (; applied < prefix; ++applied) {
      ASSERT_TRUE(reference->Process(log[applied]).ok());
    }
    const Buffer toggled = reference->Provenance(kToggled[0]);
    toggled_empty.push_back(toggled.entries.empty() && toggled.total == 0.0);
    const Timestamp t = log[prefix - 1].t;
    for (VertexId v = 0; v < kMultiBranchVertices; ++v) {
      const QueryResult result = (*service)->Provenance(v, t);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      ASSERT_EQ(result.epoch.prefix, prefix);
      ASSERT_EQ(result.replayed_interactions, 0u);
      ASSERT_TRUE(SameBits(reference->Provenance(v), result.buffer))
          << GetParam() << " prefix " << prefix << " vertex " << v;
    }
  }
  // The input's shape: the toggled vertices went empty, non-empty,
  // empty, non-empty and empty again across the epochs. (Windowed's
  // resets drop state on a schedule of their own.)
  if (GetParam() != "Windowed") {
    EXPECT_EQ(toggled_empty, (std::vector<bool>{true, false, true, false,
                                                true, true, true}))
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Names, ServeMultiBranchTest,
    ::testing::ValuesIn(TrackerRegistry::Global().Names()), SanitizeName);

// ---------------------------------------------------------------------
// (b) Concurrent readers against the live writer: every answer, taken
// at whatever epoch the reader happened to pin, must equal the
// stop-the-world replay of exactly that epoch's prefix.

TEST(ServeConcurrencyTest, ConcurrentReadersBitIdenticalToStopTheWorld) {
  const Tin tin = GeneratedTin(20000);
  const TrackerSpec spec = StreamingSpec("Prop-sparse");
  ServeOptions options;
  options.epoch_interval = 256;  // frequent publishes under the readers
  options.ingest_batch = 128;
  auto service = ProvenanceService::Create(spec, tin.Stats(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  struct Sample {
    size_t prefix = 0;
    VertexId v = 0;
    Buffer buffer;
  };
  constexpr size_t kReaders = 3;
  std::vector<std::vector<Sample>> samples(kReaders);
  std::atomic<bool> failed{false};

  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      VertexId v = static_cast<VertexId>(r);
      while (!(*service)->IngestDone()) {
        QueryResult result = (*service)->Provenance(v);
        if (!result.status.ok()) {
          failed.store(true);
          return;
        }
        samples[r].push_back({result.epoch.prefix, v, result.buffer});
        v = (v + 7) % static_cast<VertexId>(tin.num_vertices());
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  ASSERT_TRUE((*service)->WaitIngest().ok());
  ASSERT_FALSE(failed.load());

  // One more read per vertex after the drain, so the final epoch is
  // always among the verified prefixes.
  std::vector<Sample> all;
  for (auto& per_reader : samples) {
    all.insert(all.end(), per_reader.begin(), per_reader.end());
  }
  for (VertexId v = 0; v < tin.num_vertices(); v += 11) {
    QueryResult result = (*service)->Provenance(v);
    ASSERT_TRUE(result.status.ok());
    all.push_back({result.epoch.prefix, v, result.buffer});
  }
  ASSERT_FALSE(all.empty());

  // Verify against one reference tracker advanced prefix-by-prefix in
  // sorted order — each sampled epoch replayed stop-the-world.
  std::sort(all.begin(), all.end(), [](const Sample& a, const Sample& b) {
    return a.prefix < b.prefix;
  });
  auto factory = TrackerRegistry::Global().Factory(spec, tin.Stats());
  ASSERT_TRUE(factory.ok());
  std::unique_ptr<Tracker> reference = (*factory)();
  size_t applied = 0;
  const auto& log = tin.interactions();
  for (const Sample& sample : all) {
    ASSERT_LE(sample.prefix, log.size());
    while (applied < sample.prefix) {
      ASSERT_TRUE(reference->Process(log[applied]).ok());
      ++applied;
    }
    ExpectSameBuffer(reference->Provenance(sample.v), sample.buffer,
                     "prefix " + std::to_string(sample.prefix) + " vertex " +
                         std::to_string(sample.v));
  }
}

// Hands out a log one epoch at a time: the first interaction of each
// epoch waits until the readers have made `queries_per_epoch` more
// queries, so every published epoch meets readers.
class PacedStream : public InteractionStream {
 public:
  PacedStream(const MultiBranchInput* input, size_t epoch_interval,
              const std::atomic<size_t>* queries, size_t queries_per_epoch)
      : input_(input),
        epoch_interval_(epoch_interval),
        queries_(queries),
        queries_per_epoch_(queries_per_epoch) {}

  bool Next(Interaction* out) override {
    if (cursor_ == input_->log.size()) return false;
    if (cursor_ % epoch_interval_ == 0) {
      const size_t target = queries_->load() + queries_per_epoch_;
      while (queries_->load() < target) std::this_thread::yield();
    }
    *out = input_->log[cursor_++];
    return true;
  }

  DatasetStats Stats() const override { return input_->stats; }

 private:
  const MultiBranchInput* input_;
  size_t epoch_interval_;
  const std::atomic<size_t>* queries_;
  size_t queries_per_epoch_;
  size_t cursor_ = 0;
};

// Reclamation: only the writer frees answers, and only once no live
// table reaches them. Readers query a multi-branch table while
// publishes retire what they read; every answer must still equal
// stop-the-world replay of its epoch. Under the sanitizer builds a
// premature free is a use-after-free and a missed one a leak.
class ServeReclamationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeReclamationTest, ConcurrentReadersMatchStopTheWorld) {
  const MultiBranchInput input = MultiBranchLog(/*extra_phases=*/120);
  TrackerSpec spec = StreamingSpec(GetParam());
  spec.params.window = 1000;  // a few Windowed publishes replace every answer
  ServeOptions options;
  options.epoch_interval = kMultiBranchPhase / 2;
  options.ingest_batch = 8;
  options.ring_size = 2;
  auto service = ProvenanceService::Create(spec, input.stats, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // The vertices the stream changes, and an idle one per branch.
  std::vector<VertexId> watched = {0,    1,    62,   63,   64,   65,
                                   127,  128,  1063, 1064, 4094, 4095,
                                   4096, 4097, 5095, 5096, 6000, 8191,
                                   8192, kMultiBranchVertices - 1, 2000,
                                   kSignedZero, kSignedZero + 1000, 7000};
  struct Sample {
    size_t prefix = 0;
    VertexId v = 0;
    Buffer buffer;
  };
  constexpr size_t kReaders = 3;
  constexpr size_t kMaxSamples = 200000;  // kept per reader
  std::vector<std::vector<Sample>> samples(kReaders);
  std::atomic<size_t> queries{0};
  std::atomic<bool> failed{false};

  ASSERT_TRUE((*service)
                  ->Start(std::make_unique<PacedStream>(
                      &input, options.epoch_interval, &queries,
                      /*queries_per_epoch=*/30))
                  .ok());
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // Keeps querying after a failure: the paced stream waits on every
      // reader's progress.
      size_t i = r;
      while (!(*service)->IngestDone()) {
        const VertexId v = watched[i++ % watched.size()];
        QueryResult result = (*service)->Provenance(v);
        queries.fetch_add(1);
        if (!result.status.ok()) {
          failed.store(true);
          continue;
        }
        if (samples[r].size() < kMaxSamples) {
          samples[r].push_back(
              {result.epoch.prefix, v, std::move(result.buffer)});
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  ASSERT_TRUE((*service)->WaitIngest().ok());
  ASSERT_FALSE(failed.load());

  std::vector<Sample> all;
  for (auto& per_reader : samples) {
    for (Sample& sample : per_reader) all.push_back(std::move(sample));
  }
  for (const VertexId v : watched) {
    QueryResult result = (*service)->Provenance(v);
    ASSERT_TRUE(result.status.ok());
    all.push_back({result.epoch.prefix, v, std::move(result.buffer)});
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Sample& a, const Sample& b) {
                     return a.prefix < b.prefix;
                   });
  auto factory = TrackerRegistry::Global().Factory(spec, input.stats);
  ASSERT_TRUE(factory.ok());
  std::unique_ptr<Tracker> reference = (*factory)();
  size_t applied = 0;
  for (const Sample& sample : all) {
    ASSERT_LE(sample.prefix, input.log.size());
    for (; applied < sample.prefix; ++applied) {
      ASSERT_TRUE(reference->Process(input.log[applied]).ok());
    }
    ASSERT_TRUE(SameBits(reference->Provenance(sample.v), sample.buffer))
        << GetParam() << " prefix " << sample.prefix << " vertex "
        << sample.v;
  }
}

// memory.serve_retired_answer_bytes counts answers that a live table
// still reaches although a newer one replaced them. After the drain the
// ring's older epochs reach some; with one ring slot and no reader,
// nothing does, so the final publish frees every retired answer.
TEST_P(ServeReclamationTest, RetiredAnswerBytesFollowTheRing) {
  const MultiBranchInput input = MultiBranchLog(/*extra_phases=*/4);
  TrackerSpec spec = StreamingSpec(GetParam());
  spec.params.window = 100;
  for (const size_t ring_size : {4, 1}) {
    ServeOptions options;
    options.epoch_interval = kMultiBranchPhase;
    options.ring_size = ring_size;
    auto service = ProvenanceService::Create(spec, input.stats, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_TRUE((*service)
                    ->Start(std::make_unique<VectorStream>(
                        kMultiBranchVertices, input.log))
                    .ok());
    ASSERT_TRUE((*service)->WaitIngest().ok());
    const double retired = obs::MetricsRegistry::Global()
                               .GetGauge("memory.serve_retired_answer_bytes")
                               ->Value();
    if (ring_size == 1) {
      EXPECT_EQ(retired, 0.0) << GetParam();
    } else {
      EXPECT_GT(retired, 0.0) << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Names, ServeReclamationTest,
                         ::testing::Values("FIFO", "Prop-sparse", "Windowed"),
                         SanitizeName);

// ---------------------------------------------------------------------
// (c) Epoch-ring wraparound: long past the ring's reach, historical
// queries still answer exactly via nearest snapshot + delta replay.

TEST(ServeHistoryTest, RingWraparoundStillAnswersExactly) {
  const Tin tin = GeneratedTin();
  const TrackerSpec spec = StreamingSpec("Prop-sparse");
  ServeOptions options;
  options.epoch_interval = 100;
  options.ring_size = 2;  // ~30 epochs published, only 2 retained live
  auto service = ProvenanceService::Create(spec, tin.Stats(), options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());
  ASSERT_GT((*service)->LatestEpoch().seq, 10u);

  const auto& log = tin.interactions();
  // Probe times across the whole stream, almost all far behind the
  // 2-epoch ring, plus the boundaries.
  const std::vector<Timestamp> probes = {
      log.front().t - 1.0, log.front().t, log[150].t, log[1234].t,
      log[2500].t,         log.back().t,  log.back().t + 5.0};
  for (const Timestamp t : probes) {
    const size_t prefix = PrefixLength(tin, t);
    const auto reference = ReferencePrefix(spec, tin, prefix);
    for (const VertexId v : {VertexId{0}, VertexId{17}, VertexId{59}}) {
      QueryResult result = (*service)->Provenance(v, t);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      ExpectSameBuffer(reference->Provenance(v), result.buffer,
                       "t=" + std::to_string(t) + " v=" + std::to_string(v));
    }
  }
}

TEST(ServeHistoryTest, RetentionOffBoundsHistoricalReach) {
  const Tin tin = GeneratedTin();
  ServeOptions options;
  options.epoch_interval = 100;
  options.ring_size = 2;
  options.retain_history = false;
  auto service = ProvenanceService::Create(StreamingSpec("Prop-sparse"),
                                           tin.Stats(), options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  // At or past the final watermark the latest epoch answers.
  QueryResult fresh =
      (*service)->Provenance(0, tin.interactions().back().t);
  EXPECT_TRUE(fresh.status.ok());
  // Far behind the 2-epoch ring there is nothing to answer from.
  QueryResult stale =
      (*service)->Provenance(0, tin.interactions().front().t - 1.0);
  EXPECT_EQ(stale.status.code(), StatusCode::kFailedPrecondition);
  // The ring still holds the previous epoch, but without the log a ring
  // epoch is never matched to t (ties make its prefix ambiguous), so
  // even that epoch's own watermark fails.
  ASSERT_EQ(tin.num_interactions() % options.epoch_interval, 0u);
  const Timestamp previous =
      tin.interactions()[tin.num_interactions() - options.epoch_interval - 1].t;
  ASSERT_LT(previous, tin.interactions().back().t);
  QueryResult ring = (*service)->Provenance(0, previous);
  EXPECT_EQ(ring.status.code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------
// (d) Durable restart: the restarted service's history is seeded from
// recovery, so queries before, at and after the restart watermark —
// including a timestamp tied across it — equal full-replay references,
// and a historical query replays exactly as much after the restart as
// before it (the seeded history holds the on-disk snapshots).

// Runs of three tied timestamps: log[1500] and log[1501] share t = 500,
// so a restart after 1501 interactions lands inside a tie.
std::vector<Interaction> TiedLog(const Tin& tin) {
  std::vector<Interaction> log = tin.interactions();
  for (size_t i = 0; i < log.size(); ++i) {
    log[i].t = static_cast<Timestamp>(i / 3);
  }
  return log;
}

TEST(ServeHistoryTest, RestartBoundaryMatchesFullReplay) {
  const Tin generated = GeneratedTin();
  const Tin tin(generated.num_vertices(), TiedLog(generated));
  const auto& log = tin.interactions();
  const size_t split = 1501;
  ASSERT_EQ(log[split - 1].t, log[split].t);
  const Timestamp restart_t = log[split - 1].t;
  // Before the restart watermark (none lands on an epoch prefix, so
  // none is a ring hit on either side of the restart) ...
  const std::vector<Timestamp> before = {log[10].t, log[split / 2].t,
                                         restart_t - 2};
  // ... then at it (the tie) and after it.
  std::vector<Timestamp> probes = before;
  probes.insert(probes.end(),
                {restart_t, log[split + 300].t, log.back().t});
  const std::vector<VertexId> vertices = {3, 21, 42};

  for (const std::string name : {"FIFO", "Prop-sparse", "Windowed"}) {
    const TrackerSpec spec = StreamingSpec(name);
    DurableDir dir("restart_boundary");
    ServeOptions options;
    options.epoch_interval = 100;
    options.ingest_batch = 50;
    options.durability.dir = dir.path();

    std::vector<size_t> replayed;
    {
      auto service = ProvenanceService::Create(spec, tin.Stats(), options);
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      ASSERT_TRUE((*service)
                      ->Start(std::make_unique<VectorStream>(
                          tin.num_vertices(),
                          std::vector<Interaction>(log.begin(),
                                                   log.begin() + split)))
                      .ok());
      ASSERT_TRUE((*service)->WaitIngest().ok());
      for (const Timestamp t : before) {
        for (const VertexId v : vertices) {
          const QueryResult result = (*service)->Provenance(v, t);
          ASSERT_TRUE(result.status.ok()) << result.status.ToString();
          replayed.push_back(result.replayed_interactions);
        }
      }
    }

    auto service = ProvenanceService::Create(spec, tin.Stats(), options);
    ASSERT_TRUE(service.ok()) << name << ": " << service.status().ToString();
    // Epoch prefixes count from log position 0, not from the restart.
    EXPECT_EQ((*service)->LatestEpoch().prefix, split) << name;
    EXPECT_EQ((*service)->LatestEpoch().watermark, restart_t) << name;
    size_t i = 0;
    for (const Timestamp t : before) {
      const auto reference = ReferencePrefix(spec, tin, PrefixLength(tin, t));
      for (const VertexId v : vertices) {
        const QueryResult result = (*service)->Provenance(v, t);
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
        ExpectSameBuffer(reference->Provenance(v), result.buffer,
                         name + " restarted t=" + std::to_string(t) +
                             " v=" + std::to_string(v));
        EXPECT_EQ(result.replayed_interactions, replayed[i++])
            << name << " t=" << t << " v=" << v;
      }
    }

    ASSERT_TRUE((*service)
                    ->Start(std::make_unique<VectorStream>(
                        tin.num_vertices(),
                        std::vector<Interaction>(log.begin() + split,
                                                 log.end())))
                    .ok());
    ASSERT_TRUE((*service)->WaitIngest().ok());
    EXPECT_EQ((*service)->LatestEpoch().prefix, log.size()) << name;
    for (const Timestamp t : probes) {
      const auto reference = ReferencePrefix(spec, tin, PrefixLength(tin, t));
      for (const VertexId v : vertices) {
        const QueryResult result = (*service)->Provenance(v, t);
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
        ExpectSameBuffer(reference->Provenance(v), result.buffer,
                         name + " resumed t=" + std::to_string(t) +
                             " v=" + std::to_string(v));
      }
    }
  }
}

// With retention off a restart keeps no history either: the recovered
// state answers t at or past its watermark, and every earlier t fails.
TEST(ServeHistoryTest, RetentionOffRestartAnswersOnlyFromTheWatermark) {
  const Tin tin = GeneratedTin();
  const auto& log = tin.interactions();
  const TrackerSpec spec = StreamingSpec("Prop-sparse");
  const size_t split = tin.num_interactions() / 2;
  DurableDir dir("restart_retention_off");
  ServeOptions options;
  options.epoch_interval = 100;
  options.retain_history = false;
  options.durability.dir = dir.path();
  {
    auto service = ProvenanceService::Create(spec, tin.Stats(), options);
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE((*service)
                    ->Start(std::make_unique<VectorStream>(
                        tin.num_vertices(),
                        std::vector<Interaction>(log.begin(),
                                                 log.begin() + split)))
                    .ok());
    ASSERT_TRUE((*service)->WaitIngest().ok());
  }

  auto service = ProvenanceService::Create(spec, tin.Stats(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const auto reference = ReferencePrefix(spec, tin, split);
  for (const Timestamp t : {log[split - 1].t, log.back().t + 1.0}) {
    const QueryResult result = (*service)->Provenance(17, t);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ExpectSameBuffer(reference->Provenance(17), result.buffer,
                     "t=" + std::to_string(t));
  }
  ASSERT_LT(log[split / 2].t, log[split - 1].t);
  EXPECT_EQ((*service)->Provenance(17, log[split / 2].t).status.code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------
// (d2) Catchup: the bulk-load before Start() must leave
// the service indistinguishable from one that ingested everything
// through the live path.

TEST(ServeCatchupTest, CatchupPlusTailMatchesFullSequentialStart) {
  const Tin tin = GeneratedTin();
  const TrackerSpec spec = StreamingSpec("Prop-sparse");
  const auto& log = tin.interactions();
  const size_t split = tin.num_interactions() / 2;

  ServeOptions options;
  options.epoch_interval = 300;
  options.catchup.num_threads = 4;
  options.catchup.num_shards = 4;
  auto service = ProvenanceService::Create(spec, tin.Stats(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::vector<Interaction> head(log.begin(), log.begin() + split);
  ASSERT_TRUE((*service)
                  ->Catchup(std::make_unique<VectorStream>(
                      tin.num_vertices(), std::move(head)))
                  .ok());
  EXPECT_EQ((*service)->catchup_stats().interactions, split);
  // The catchup result is immediately queryable at its own epoch.
  EXPECT_EQ((*service)->LatestEpoch().prefix, split);
  EXPECT_EQ((*service)->LatestEpoch().watermark, log[split - 1].t);

  std::vector<Interaction> tail(log.begin() + split, log.end());
  ASSERT_TRUE((*service)
                  ->Start(std::make_unique<VectorStream>(tin.num_vertices(),
                                                         std::move(tail)))
                  .ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  // Epoch prefixes keep counting interactions-applied-since-empty, so
  // the final epoch covers the whole log, not just the tail.
  EXPECT_EQ((*service)->LatestEpoch().prefix, tin.num_interactions());
  EXPECT_EQ((*service)->LatestEpoch().watermark, log.back().t);
  EXPECT_EQ((*service)->ingest_stats().interactions,
            tin.num_interactions() - split);

  const auto reference = ReferencePrefix(spec, tin, tin.num_interactions());
  for (VertexId v = 0; v < tin.num_vertices(); ++v) {
    QueryResult result = (*service)->Provenance(v);
    ASSERT_TRUE(result.status.ok());
    ExpectSameBuffer(reference->Provenance(v), result.buffer,
                     "catchup vertex " + std::to_string(v));
  }
}

TEST(ServeCatchupTest, HistoricalQueriesSpanTheCatchupRange) {
  // retain_history keeps the catchup interactions in the retained log
  // (the engine's stream is teed through it), so Provenance(v, t) for a
  // t inside the caught-up range answers exactly as if the range had
  // been ingested live.
  const Tin tin = GeneratedTin();
  const TrackerSpec spec = StreamingSpec("Windowed");
  const auto& log = tin.interactions();
  const size_t split = (2 * tin.num_interactions()) / 3;

  ServeOptions options;
  options.epoch_interval = 100;
  options.catchup.num_threads = 3;
  auto service = ProvenanceService::Create(spec, tin.Stats(), options);
  ASSERT_TRUE(service.ok());
  std::vector<Interaction> head(log.begin(), log.begin() + split);
  ASSERT_TRUE((*service)
                  ->Catchup(std::make_unique<VectorStream>(
                      tin.num_vertices(), std::move(head)))
                  .ok());
  std::vector<Interaction> tail(log.begin() + split, log.end());
  ASSERT_TRUE((*service)
                  ->Start(std::make_unique<VectorStream>(tin.num_vertices(),
                                                         std::move(tail)))
                  .ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  const std::vector<Timestamp> probes = {log[10].t, log[split / 2].t,
                                         log[split - 1].t, log[split + 5].t,
                                         log.back().t};
  for (const Timestamp t : probes) {
    const size_t prefix = PrefixLength(tin, t);
    const auto reference = ReferencePrefix(spec, tin, prefix);
    for (const VertexId v : {VertexId{1}, VertexId{29}, VertexId{58}}) {
      QueryResult result = (*service)->Provenance(v, t);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      ExpectSameBuffer(reference->Provenance(v), result.buffer,
                       "catchup-history t=" + std::to_string(t) + " v=" +
                           std::to_string(v));
    }
  }
}

TEST(ServeCatchupTest, LifecyclePreconditions) {
  const Tin tin = GeneratedTin();
  const TrackerSpec spec = StreamingSpec("Prop-sparse");
  const auto& log = tin.interactions();
  auto make_stream = [&] {
    return std::make_unique<VectorStream>(
        tin.num_vertices(), std::vector<Interaction>(log.begin(),
                                                     log.begin() + 100));
  };

  {
    auto service = ProvenanceService::Create(spec, tin.Stats());
    ASSERT_TRUE(service.ok());
    EXPECT_EQ((*service)->Catchup(nullptr).code(),
              StatusCode::kInvalidArgument);
    // A second catchup would double-apply: one bulk load only.
    ASSERT_TRUE((*service)->Catchup(make_stream()).ok());
    EXPECT_EQ((*service)->Catchup(make_stream()).code(),
              StatusCode::kFailedPrecondition);
  }
  {
    // A failed catchup leaves its applied prefix in the live tracker,
    // so it cannot be retried either.
    auto service = ProvenanceService::Create(spec, tin.Stats());
    ASSERT_TRUE(service.ok());
    std::vector<Interaction> bad(log.begin(), log.begin() + 100);
    bad[50].dst = static_cast<VertexId>(tin.num_vertices());
    EXPECT_EQ((*service)
                  ->Catchup(std::make_unique<VectorStream>(tin.num_vertices(),
                                                           std::move(bad)))
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ((*service)->Catchup(make_stream()).code(),
              StatusCode::kFailedPrecondition);
  }
  {
    // Once the live ingest started, the bulk path is closed.
    auto service = ProvenanceService::Create(spec, tin.Stats());
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE(
        (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
    EXPECT_EQ((*service)->Catchup(make_stream()).code(),
              StatusCode::kFailedPrecondition);
    ASSERT_TRUE((*service)->WaitIngest().ok());
  }
}

// ---------------------------------------------------------------------
// (d3) Both Catchup arms — label-sharded replay for the label-linear
// specs at 2+ shard workers, a StreamIngestor otherwise — must leave the
// service bit-identical to a sequential ingest: every answer and the
// live tracker's SaveState bytes, after the catchup and again after the
// live tail. The stream has timestamp ties, Windowed resets land inside
// the catchup, and the catchup broadcasts several chunks.

using CatchupCase = std::tuple<std::string, size_t, size_t>;

class ServeCatchupEquivalenceTest
    : public ::testing::TestWithParam<CatchupCase> {};

void ExpectServiceMatches(const ProvenanceService& service,
                          const Tracker& reference,
                          const std::string& context) {
  for (VertexId v = 0; v < service.num_vertices(); ++v) {
    const QueryResult result = service.Provenance(v);
    ASSERT_TRUE(result.status.ok());
    ExpectSameBuffer(reference.Provenance(v), result.buffer,
                     context + " vertex " + std::to_string(v));
  }
  std::vector<uint8_t> expected;
  reference.SaveState(&expected);
  EXPECT_TRUE(ProvenanceServiceTestPeer::LiveState(service) == expected)
      << context << ": live tracker SaveState bytes differ";
}

TEST_P(ServeCatchupEquivalenceTest, BothArmsMatchSequentialIngest) {
  const auto& [name, threads, shards] = GetParam();
  const Tin generated = GeneratedTin(3000);
  std::vector<Interaction> log = generated.interactions();
  for (size_t i = 0; i < log.size(); ++i) {
    log[i].t = static_cast<Timestamp>(i / 3);  // runs of tied timestamps
  }
  const size_t n = generated.num_vertices();
  const DatasetStats stats{n, log.size()};
  const size_t split = 2 * log.size() / 3;
  const std::vector<Interaction> head(log.begin(), log.begin() + split);
  const std::vector<Interaction> tail(log.begin() + split, log.end());

  TrackerSpec spec = StreamingSpec(name);
  spec.params.window = 70;
  ServeOptions options;
  options.epoch_interval = 300;
  options.ingest_batch = 128;
  options.catchup.num_threads = threads;
  options.catchup.num_shards = shards;
  options.catchup.stream_chunk = 256;
  auto service = ProvenanceService::Create(spec, stats, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(
      (*service)->Catchup(std::make_unique<VectorStream>(n, head)).ok());
  const IngestStats& caught = (*service)->catchup_stats();
  EXPECT_EQ(caught.interactions, split);
  EXPECT_EQ(caught.watermark, head.back().t);
  EXPECT_EQ(caught.batches, (split + 127) / 128);  // ingest_batch units
  EXPECT_EQ((*service)->LatestEpoch().prefix, split);

  auto factory = TrackerRegistry::Global().Factory(spec, stats);
  ASSERT_TRUE(factory.ok());
  std::unique_ptr<Tracker> reference = (*factory)();
  StreamIngestor ingestor(reference.get());
  VectorStream head_stream(n, head);
  ASSERT_TRUE(ingestor.IngestAll(head_stream).ok());
  ExpectServiceMatches(**service, *reference, name + " after catchup");

  ASSERT_TRUE(
      (*service)->Start(std::make_unique<VectorStream>(n, tail)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());
  VectorStream tail_stream(n, tail);
  ASSERT_TRUE(ingestor.IngestAll(tail_stream).ok());
  EXPECT_EQ((*service)->LatestEpoch().prefix, log.size());
  ExpectServiceMatches(**service, *reference, name + " after the tail");
}

std::string CatchupCaseName(const ::testing::TestParamInfo<CatchupCase>& info) {
  std::string name = std::get<0>(info.param);
  name.erase(std::remove_if(name.begin(), name.end(),
                            [](char c) {
                              return !std::isalnum(
                                  static_cast<unsigned char>(c));
                            }),
             name.end());
  return name + "_threads" + std::to_string(std::get<1>(info.param)) +
         "_shards" + std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Workers, ServeCatchupEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(TrackerRegistry::Global().Names()),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{3}),
                       ::testing::Values(size_t{0})),
    CatchupCaseName);

// More label shards than workers: each worker feeds several shards.
INSTANTIATE_TEST_SUITE_P(
    MoreShardsThanWorkers, ServeCatchupEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(TrackerRegistry::Global().Names()),
                       ::testing::Values(size_t{2}),
                       ::testing::Values(size_t{5})),
    CatchupCaseName);

// serve.catchup_workers in /statusz names the arm that ran: the shard
// worker count, or 0 for the sequential StreamIngestor.
TEST(ServeCatchupTest, CatchupWorkersGaugeNamesTheArm) {
  const Tin tin = GeneratedTin();
  auto workers_after_catchup = [&](const std::string& name, size_t threads) {
    ServeOptions options;
    options.catchup.num_threads = threads;
    auto service =
        ProvenanceService::Create(StreamingSpec(name), tin.Stats(), options);
    EXPECT_TRUE(service.ok());
    EXPECT_TRUE((*service)->Catchup(std::make_unique<MaterializedStream>(tin))
                    .ok());
    return JsonField((*service)->StatuszJson(), "catchup_workers");
  };
  EXPECT_EQ(workers_after_catchup("Prop-sparse", 3), 3u);
  EXPECT_EQ(workers_after_catchup("Grouped", 2), 2u);
  EXPECT_EQ(workers_after_catchup("Prop-sparse", 1), 0u);
  EXPECT_EQ(workers_after_catchup("FIFO", 3), 0u);
  EXPECT_EQ(workers_after_catchup("Budget", 3), 0u);
  // 0 leaves the calling thread one of the host's CPUs.
  const size_t resolved = std::max<size_t>(HardwareThreads(), 2) - 1;
  EXPECT_EQ(workers_after_catchup("Prop-sparse", 0),
            resolved >= 2 ? resolved : 0u);
}

// A bad interaction mid-stream fails the sharded arm with the same
// InvalidArgument the sequential one returns — an out-of-range endpoint
// inside a shard worker, an out-of-order timestamp in the producer —
// and the service then refuses a second Catchup and Start(), since its
// live tracker holds a partial prefix.
TEST(ServeCatchupTest, ShardedArmRejectsBadStreamsAndStaysClosed) {
  const Tin tin = GeneratedTin();
  const auto& log = tin.interactions();
  const size_t n = tin.num_vertices();
  for (const std::string name : {"Prop-sparse", "Windowed"}) {
    for (const size_t threads : {size_t{2}, size_t{3}}) {
      for (const bool bad_dst : {true, false}) {
        const std::string context = name + " threads " +
                                    std::to_string(threads) +
                                    (bad_dst ? " bad dst" : " bad time");
        ServeOptions options;
        options.catchup.num_threads = threads;
        options.catchup.stream_chunk = 128;  // the fault lands mid-stream
        auto service =
            ProvenanceService::Create(StreamingSpec(name), tin.Stats(),
                                      options);
        ASSERT_TRUE(service.ok());
        std::vector<Interaction> bad(log.begin(), log.begin() + 2000);
        if (bad_dst) {
          bad[1500].dst = static_cast<VertexId>(n);
        } else {
          bad[1500].t = bad[0].t - 1.0;
        }
        EXPECT_EQ((*service)
                      ->Catchup(std::make_unique<VectorStream>(n,
                                                               std::move(bad)))
                      .code(),
                  StatusCode::kInvalidArgument)
            << context;
        EXPECT_EQ(JsonField((*service)->StatuszJson(), "catchup_workers"),
                  threads)
            << context;
        EXPECT_EQ((*service)
                      ->Catchup(std::make_unique<VectorStream>(
                          n, std::vector<Interaction>(log.begin(),
                                                      log.begin() + 100)))
                      .code(),
                  StatusCode::kFailedPrecondition)
            << context;
        EXPECT_EQ((*service)
                      ->Start(std::make_unique<MaterializedStream>(tin))
                      .code(),
                  StatusCode::kFailedPrecondition)
            << context;
      }
    }
  }
}

// ---------------------------------------------------------------------
// (e) API edges: construction validation, top-k ordering, dispatch,
// lifecycle, and ingest-error propagation.

TEST(ServeApiTest, RejectsMaterializedModeSpecs) {
  const Tin tin = GeneratedTin();
  TrackerSpec spec{"Prop-sparse", TestParams(), TrackerMode::kMaterialized};
  auto service = ProvenanceService::Create(spec, tin.Stats());
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeApiTest, TopOriginsSortsAndTruncates) {
  const Tin tin = GeneratedTin();
  auto service =
      ProvenanceService::Create(StreamingSpec("Prop-sparse"), tin.Stats());
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  for (VertexId v = 0; v < tin.num_vertices(); v += 9) {
    const QueryResult all = (*service)->Provenance(v);
    ASSERT_TRUE(all.status.ok());
    const QueryResult top = (*service)->TopOrigins(v, 3);
    ASSERT_TRUE(top.status.ok());
    EXPECT_LE(top.buffer.entries.size(), 3u);
    EXPECT_EQ(top.buffer.entries.size(),
              std::min<size_t>(3, all.buffer.entries.size()));
    // Quantity-descending, origin-ascending on ties; total untouched.
    EXPECT_EQ(top.buffer.total, all.buffer.total);
    for (size_t i = 1; i < top.buffer.entries.size(); ++i) {
      const ProvPair& a = top.buffer.entries[i - 1];
      const ProvPair& b = top.buffer.entries[i];
      EXPECT_TRUE(a.quantity > b.quantity ||
                  (a.quantity == b.quantity && a.origin < b.origin))
          << "vertex " << v << " entry " << i;
    }
    // Nothing outside the top-k beats anything inside it.
    if (!top.buffer.entries.empty()) {
      double kth = top.buffer.entries.back().quantity;
      for (const ProvPair& entry : all.buffer.entries) {
        EXPECT_LE(
            entry.quantity,
            top.buffer.entries.front().quantity);
        (void)kth;
      }
    }
  }
}

TEST(ServeApiTest, ExecuteDispatchAndBoundsChecks) {
  const Tin tin = GeneratedTin();
  auto service =
      ProvenanceService::Create(StreamingSpec("FIFO"), tin.Stats());
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  QueryRequest request;
  request.kind = QueryKind::kTopOrigins;
  request.v = 1;
  request.k = 2;
  const QueryResult via_execute = (*service)->Execute(request);
  const QueryResult direct = (*service)->TopOrigins(1, 2);
  ASSERT_TRUE(via_execute.status.ok());
  ExpectSameBuffer(direct.buffer, via_execute.buffer, "execute dispatch");

  // Out-of-range vertices are an error on every path, not a crash.
  EXPECT_EQ((*service)->Provenance(999).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*service)->Provenance(999, 1.0).status.code(),
            StatusCode::kInvalidArgument);
  // A historical query is checked before it replays any history.
  const Timestamp past = tin.interactions()[tin.num_interactions() / 3].t;
  EXPECT_GT((*service)->Provenance(1, past).replayed_interactions, 0u);
  EXPECT_EQ((*service)->Provenance(999, past).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*service)->TopOrigins(999, 3).status.code(),
            StatusCode::kInvalidArgument);

  // One ingest per service.
  EXPECT_EQ(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).code(),
      StatusCode::kFailedPrecondition);
}

TEST(ServeApiTest, IngestErrorsSurfaceThroughWaitIngest) {
  std::vector<Interaction> disordered;
  for (size_t i = 0; i < 50; ++i) {
    Interaction interaction;
    interaction.src = static_cast<VertexId>(i % 5);
    interaction.dst = static_cast<VertexId>((i + 2) % 5);
    interaction.t = static_cast<Timestamp>(50 - i);  // strictly decreasing
    interaction.quantity = 1.0;
    disordered.push_back(interaction);
  }
  auto service = ProvenanceService::Create(StreamingSpec("FIFO"),
                                           DatasetStats{5, 50});
  ASSERT_TRUE(service.ok());
  // The writer thread finds the disorder; WaitIngest reports it.
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<VectorStream>(5, disordered)).ok());
  EXPECT_EQ((*service)->WaitIngest().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// (f) MemoryBytes regression (the dynamic_cast probe replacement):
// every tracker reports an allocator-level footprint at least as large
// as its logical accounting, whatever the policy.

TEST(ServeApiTest, MemoryBytesCoversLogicalBytesForEveryTracker) {
  const Tin tin = GeneratedTin();
  const TrackerRegistry& registry = TrackerRegistry::Global();
  for (const std::string& name : registry.Names()) {
    auto tracker = registry.Create({name, TestParams()}, tin);
    ASSERT_TRUE(tracker.ok()) << name;
    ASSERT_TRUE((*tracker)->ProcessAll(tin).ok()) << name;
    EXPECT_GE((*tracker)->MemoryBytes(), (*tracker)->MemoryUsage()) << name;
    (*tracker)->PublishMetrics();  // must be callable on any tracker
  }
}

// ---------------------------------------------------------------------
// (g) Ops plane: /statusz agrees with what a pinned reader sees, the
// slow-query log tags queries on both entry points, and /healthz flips
// to 503 the moment a registered check reports unhealthy.

TEST(ServeOpsTest, StatuszJsonMatchesPinnedEpoch) {
  const Tin tin = GeneratedTin();
  auto service =
      ProvenanceService::Create(StreamingSpec("Prop-sparse"), tin.Stats());
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  // The page pins one view, exactly like a query does; after the drain
  // both must be the final epoch.
  const std::string statusz = (*service)->StatuszJson();
  const QueryResult pinned = (*service)->Provenance(0);
  ASSERT_TRUE(pinned.status.ok());
  EXPECT_EQ(JsonField(statusz, "prefix"), pinned.epoch.prefix);
  EXPECT_EQ(JsonField(statusz, "seq"), pinned.epoch.seq);
  EXPECT_EQ(JsonField(statusz, "prefix"), (*service)->LatestEpoch().prefix);
  EXPECT_NE(statusz.find("\"done\":true"), std::string::npos);
  EXPECT_NE(statusz.find("\"total_bytes\":"), std::string::npos);
}

// /statusz's publish block: one dirty-vertex observation per publish,
// and the log-volume rule's snapshot count. The registry is
// process-wide, so the test reads deltas across its own service.
TEST(ServeOpsTest, StatuszReportsPublishCostAndSnapshots) {
  const Tin tin = GeneratedTin();
  ServeOptions options;
  options.epoch_interval = 100;
  auto service = ProvenanceService::Create(StreamingSpec("FIFO"), tin.Stats(),
                                           options);
  ASSERT_TRUE(service.ok());
  const std::string before = (*service)->StatuszJson();
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());
  const std::string after = (*service)->StatuszJson();

  EXPECT_NE(after.find("\"publish\":{\"count\":"), std::string::npos);
  EXPECT_NE(after.find("\"dirty_vertices_p50\":"), std::string::npos);
  EXPECT_NE(after.find("\"publish_ns_p99\":"), std::string::npos);
  EXPECT_GT(JsonField(after, "publish_ns_p50"), 0u);
  // The ring still reaches some replaced answers after the drain.
  EXPECT_GT(JsonField(after, "memory.serve_retired_answer_bytes"), 0u);
  EXPECT_EQ(JsonField(after, "count") - JsonField(before, "count"),
            (*service)->LatestEpoch().seq);
  const uint64_t snapshots = JsonField(after, "snapshots_taken") -
                             JsonField(before, "snapshots_taken");
  EXPECT_GE(snapshots, 1u);
  EXPECT_LT(snapshots, (*service)->LatestEpoch().seq);
}

TEST(ServeOpsTest, SlowQueryLogTagsExecutedQueries) {
  obs::SlowQueryLog& log = obs::SlowQueryLog::Global();
  log.Clear();
  const Tin tin = GeneratedTin();
  ServeOptions options;
  options.slow_query_ns = 1;  // everything is slow
  auto service = ProvenanceService::Create(StreamingSpec("Prop-sparse"),
                                           tin.Stats(), options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  QueryRequest request;
  request.kind = QueryKind::kProvenance;
  request.v = 7;
  const QueryResult direct = (*service)->Execute(request);
  ASSERT_TRUE(direct.status.ok());
  EXPECT_GT(direct.query_id, 0u);
  ASSERT_EQ(log.recorded(), 1u);
  {
    const std::vector<obs::SlowQueryRecord> records = log.Snapshot();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].query_id, direct.query_id);
    EXPECT_STREQ(records[0].kind, "provenance");
    EXPECT_EQ(records[0].vertex, 7u);
    EXPECT_GT(records[0].latency_ns, 0);
    EXPECT_EQ(records[0].epoch_prefix, direct.epoch.prefix);
  }

  request.kind = QueryKind::kTopOrigins;
  request.v = 3;
  request.k = 2;
  const QueryResult top = (*service)->Execute(request);
  ASSERT_TRUE(top.status.ok());
  EXPECT_GT(top.query_id, direct.query_id);
  ASSERT_EQ(log.recorded(), 2u);
  EXPECT_STREQ(log.Snapshot().back().kind, "top_origins");

  // A disabled threshold records nothing, but ids keep flowing.
  ServeOptions quiet;
  quiet.slow_query_ns = 0;
  auto quiet_service = ProvenanceService::Create(
      StreamingSpec("Prop-sparse"), tin.Stats(), quiet);
  ASSERT_TRUE(quiet_service.ok());
  ASSERT_TRUE((*quiet_service)
                  ->Start(std::make_unique<MaterializedStream>(tin))
                  .ok());
  ASSERT_TRUE((*quiet_service)->WaitIngest().ok());
  request.kind = QueryKind::kProvenance;
  const QueryResult untracked = (*quiet_service)->Execute(request);
  ASSERT_TRUE(untracked.status.ok());
  EXPECT_GT(untracked.query_id, top.query_id);
  EXPECT_EQ(log.recorded(), 2u);
  log.Clear();
}

// Minimal loopback HTTP client (mirrors the one in test_obs.cc).
std::string OpsHttpGet(uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(ServeOpsTest, OpsServerServesConsistentStatusAndHealth) {
  const Tin tin = GeneratedTin();
  auto service =
      ProvenanceService::Create(StreamingSpec("Prop-sparse"), tin.Stats());
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(
      (*service)->Start(std::make_unique<MaterializedStream>(tin)).ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());

  auto port = (*service)->EnableOpsServer(0);  // ephemeral
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  ASSERT_GT(*port, 0);
  EXPECT_FALSE((*service)->EnableOpsServer(0).ok());  // one per service
  ASSERT_NE((*service)->ops_recorder(), nullptr);

  // /statusz over the wire reports the same epoch a pinned reader sees.
  const std::string statusz = OpsHttpGet(*port, "/statusz");
  EXPECT_NE(statusz.find("HTTP/1.0 200"), std::string::npos);
  const QueryResult pinned = (*service)->Provenance(0);
  ASSERT_TRUE(pinned.status.ok());
  EXPECT_EQ(JsonField(statusz, "prefix"), pinned.epoch.prefix);

  // Healthy service: the full catalogue passes (ingest is drained, the
  // queue is empty, nothing dropped).
  const std::string healthy = OpsHttpGet(*port, "/healthz");
  EXPECT_NE(healthy.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(healthy.find("\"healthy\":true"), std::string::npos);
  EXPECT_NE(healthy.find("serve.epoch_age"), std::string::npos);
  EXPECT_NE(healthy.find("ingest.watermark_lag"), std::string::npos);

  // Force one check unhealthy: the endpoint must flip to 503.
  obs::HealthRegistry::Global().Register("test.forced", [] {
    obs::HealthResult result;
    result.healthy = false;
    result.message = "forced by test";
    return result;
  });
  const std::string sick = OpsHttpGet(*port, "/healthz");
  EXPECT_NE(sick.find("HTTP/1.0 503"), std::string::npos);
  EXPECT_NE(sick.find("forced by test"), std::string::npos);
  obs::HealthRegistry::Global().Unregister("test.forced");
  EXPECT_NE(OpsHttpGet(*port, "/healthz").find("HTTP/1.0 200"),
            std::string::npos);

  // The other built-ins answer through the same listener.
  EXPECT_NE(OpsHttpGet(*port, "/metrics").find("# TYPE"), std::string::npos);
  EXPECT_NE(OpsHttpGet(*port, "/metricsz").find("\"counters\""),
            std::string::npos);

  (*service)->DisableOpsServer();
  (*service)->DisableOpsServer();  // idempotent
  EXPECT_TRUE(OpsHttpGet(*port, "/healthz").empty());
  // The service's health checks left the global registry with it.
  EXPECT_EQ(obs::HealthRegistry::Global().size(), 0u);
}

}  // namespace
}  // namespace tinprov
