// Storage-layer contracts: checksummed segments and snapshots must turn
// any crash artifact — torn tail, short write, bit rot, failed sync —
// into a clean truncation, and recovery must resume bit-identically to
// a fresh replay of whatever prefix the disk actually kept. The matrix
// tests drive every registry tracker through every FaultInjectingEnv
// mode and hold that equality; the serve tests hold it end to end
// through ProvenanceService restart.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analytics/registry.h"
#include "core/tin.h"
#include "datagen/generator.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "storage/durable_log.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/log_format.h"
#include "storage/recovery.h"
#include "storage/segment.h"
#include "storage/snapshot_store.h"
#include "stream/interaction_stream.h"
#include "util/crc32c.h"
#include "util/serialize.h"

namespace tinprov {
namespace {

namespace st = tinprov::storage;

// --- Scratch directories ---------------------------------------------------

/// A unique directory under the build tree, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    static int counter = 0;
    path_ = "tinprov_test_" + tag + "_" + std::to_string(counter++) + "_" +
            std::to_string(static_cast<unsigned>(::getpid()));
    (void)st::Env::Posix()->CreateDir(path_);
  }

  ~ScratchDir() {
    auto names = st::Env::Posix()->ListDir(path_);
    if (names.ok()) {
      for (const std::string& name : *names) {
        (void)st::Env::Posix()->DeleteFile(st::JoinPath(path_, name));
      }
    }
    ::rmdir(path_.c_str());
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<uint8_t> SlurpFile(const std::string& path) {
  auto file = st::Env::Posix()->NewRandomAccessFile(path);
  EXPECT_TRUE(file.ok());
  auto size = (*file)->Size();
  EXPECT_TRUE(size.ok());
  std::vector<uint8_t> bytes(static_cast<size_t>(*size));
  size_t read = 0;
  if (!bytes.empty()) {
    EXPECT_TRUE((*file)->Read(0, bytes.size(), bytes.data(), &read).ok());
  }
  EXPECT_EQ(read, bytes.size());
  return bytes;
}

void DumpFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  auto file = st::Env::Posix()->NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(bytes.data(), bytes.size()).ok());
  ASSERT_TRUE((*file)->Close().ok());
}

// --- Test data -------------------------------------------------------------

Tin GeneratedTin(size_t num_vertices, size_t num_interactions,
                 uint64_t seed) {
  GeneratorConfig config;
  config.num_vertices = num_vertices;
  config.num_interactions = num_interactions;
  config.src_skew = 1.1;
  config.dst_skew = 0.9;
  config.quantity_model = QuantityModel::kLogNormal;
  config.quantity_param1 = 1.0;
  config.quantity_param2 = 1.0;
  config.self_loop_fraction = 0.05;
  config.seed = seed;
  auto tin = Generate(config);
  EXPECT_TRUE(tin.ok());
  return std::move(tin).value();
}

ScalableParams TestParams() {
  ScalableParams params;
  params.window = 200;
  params.num_tracked = 8;
  params.num_groups = 5;
  params.budget.capacity = 8;
  params.budget.keep_fraction = 0.5;
  return params;
}

TrackerSpec StreamingSpec(const std::string& name) {
  return {name, TestParams(), TrackerMode::kStreaming};
}

void ExpectInteractionsEqual(const std::vector<Interaction>& expected,
                             const std::vector<Interaction>& actual,
                             const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].src, actual[i].src) << context << " entry " << i;
    EXPECT_EQ(expected[i].dst, actual[i].dst) << context << " entry " << i;
    EXPECT_EQ(expected[i].t, actual[i].t) << context << " entry " << i;
    EXPECT_EQ(expected[i].quantity, actual[i].quantity)
        << context << " entry " << i;
  }
}

/// True when `shorter` is an exact prefix of `longer`.
bool IsPrefixOf(const std::vector<Interaction>& shorter,
                const std::vector<Interaction>& longer) {
  if (shorter.size() > longer.size()) return false;
  for (size_t i = 0; i < shorter.size(); ++i) {
    if (shorter[i].src != longer[i].src || shorter[i].dst != longer[i].dst ||
        shorter[i].t != longer[i].t ||
        shorter[i].quantity != longer[i].quantity) {
      return false;
    }
  }
  return true;
}

// --- CRC32C ----------------------------------------------------------------

TEST(Crc32c, KnownVectors) {
  // The canonical CRC-32C check value (RFC 3720 appendix / "123456789").
  const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32c(digits, sizeof(digits)), 0xe3069283u);
  // 32 zero bytes — the iSCSI test vector.
  const std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  std::vector<uint8_t> data(301);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (const size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{300}}) {
    uint32_t crc = Crc32cExtend(0, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32c, MaskRoundtripAndDistinctness) {
  for (const uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(Crc32cUnmask(Crc32cMask(crc)), crc);
    EXPECT_NE(Crc32cMask(crc), crc);
  }
}

// --- Env -------------------------------------------------------------------

TEST(PosixEnv, WriteReadRoundtrip) {
  ScratchDir dir("env");
  st::Env* env = st::Env::Posix();
  const std::string path = st::JoinPath(dir.path(), "file");

  EXPECT_FALSE(env->FileExists(path));
  auto missing = env->NewRandomAccessFile(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  auto file = env->NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(payload.data(), 3).ok());
  ASSERT_TRUE((*file)->Append(payload.data() + 3, 2).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());

  EXPECT_TRUE(env->FileExists(path));
  auto size = env->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, payload.size());

  auto reader = env->NewRandomAccessFile(path);
  ASSERT_TRUE(reader.ok());
  std::vector<uint8_t> out(16, 0);
  size_t read = 0;
  // Over-long read: short count at EOF, not an error.
  ASSERT_TRUE((*reader)->Read(0, out.size(), out.data(), &read).ok());
  EXPECT_EQ(read, payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), out.begin()));
  // Offset read.
  ASSERT_TRUE((*reader)->Read(3, 2, out.data(), &read).ok());
  EXPECT_EQ(read, 2u);
  EXPECT_EQ(out[0], 4);
  EXPECT_EQ(out[1], 5);
  // Read past EOF: zero bytes, still not an error.
  ASSERT_TRUE((*reader)->Read(99, 4, out.data(), &read).ok());
  EXPECT_EQ(read, 0u);
}

TEST(PosixEnv, RenameListDeleteAndHeadroom) {
  ScratchDir dir("env2");
  st::Env* env = st::Env::Posix();
  const std::string a = st::JoinPath(dir.path(), "a");
  const std::string b = st::JoinPath(dir.path(), "b");
  DumpFile(a, {42});

  ASSERT_TRUE(env->RenameFile(a, b).ok());
  EXPECT_FALSE(env->FileExists(a));
  EXPECT_TRUE(env->FileExists(b));

  auto names = env->ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 1u);
  EXPECT_EQ((*names)[0], "b");

  // CreateDir on an existing directory is Ok (mkdir -p semantics).
  EXPECT_TRUE(env->CreateDir(dir.path()).ok());

  auto free_bytes = env->FreeDiskBytes(dir.path());
  ASSERT_TRUE(free_bytes.ok());
  EXPECT_GT(*free_bytes, 0u);

  ASSERT_TRUE(env->DeleteFile(b).ok());
  EXPECT_EQ(env->DeleteFile(b).code(), StatusCode::kNotFound);
}

TEST(Storage, FileNameRoundtrip) {
  uint64_t value = 0;
  EXPECT_TRUE(st::ParseSegmentFileName(st::SegmentFileName(0), &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(st::ParseSegmentFileName(st::SegmentFileName(987654), &value));
  EXPECT_EQ(value, 987654u);
  EXPECT_TRUE(
      st::ParseSnapshotFileName(st::SnapshotFileName(123456789), &value));
  EXPECT_EQ(value, 123456789u);
  // Lexicographic order equals numeric order (fixed-width counters).
  EXPECT_LT(st::SegmentFileName(9), st::SegmentFileName(10));
  EXPECT_LT(st::SnapshotFileName(99), st::SnapshotFileName(100));
  // Foreign names are rejected, not misparsed.
  EXPECT_FALSE(st::ParseSegmentFileName("seg-.tin", &value));
  EXPECT_FALSE(st::ParseSegmentFileName("seg-12x4567890.tin", &value));
  EXPECT_FALSE(st::ParseSegmentFileName("snap-0000000001.snap", &value));
  EXPECT_FALSE(st::ParseSnapshotFileName("tmp-snap-1.snap", &value));
}

// --- Segments --------------------------------------------------------------

/// Writes `batches` into one segment; returns per-record batch sizes.
std::vector<Interaction> WriteSegmentFile(const std::string& path,
                                          const std::vector<size_t>& batches,
                                          bool seal) {
  std::vector<Interaction> all;
  auto writer = st::SegmentWriter::Open(st::Env::Posix(), path, 0);
  EXPECT_TRUE(writer.ok());
  Timestamp t = 1.0;
  VertexId v = 0;
  for (const size_t count : batches) {
    std::vector<Interaction> batch;
    for (size_t i = 0; i < count; ++i) {
      batch.push_back({v % 11, (v + 3) % 11, t, 1.0 + 0.25 * i});
      ++v;
      t += 0.5;
    }
    EXPECT_TRUE((*writer)->Append(batch.data(), batch.size()).ok());
    all.insert(all.end(), batch.begin(), batch.end());
  }
  if (seal) {
    EXPECT_TRUE((*writer)->Seal().ok());
  } else {
    EXPECT_TRUE((*writer)->Sync().ok());
  }
  return all;
}

TEST(Segment, SealedRoundtripWithZoneMap) {
  ScratchDir dir("seg");
  const std::string path = st::JoinPath(dir.path(), st::SegmentFileName(0));
  const std::vector<Interaction> all = WriteSegmentFile(path, {3, 1, 4}, true);

  st::SegmentReadResult result;
  ASSERT_TRUE(st::ReadSegment(st::Env::Posix(), path, &result).ok());
  EXPECT_EQ(result.end, st::SegmentEnd::kClean);
  EXPECT_TRUE(result.sealed);
  EXPECT_EQ(result.base_prefix, 0u);
  ExpectInteractionsEqual(all, result.interactions, "sealed roundtrip");
  EXPECT_EQ(result.zone_map.num_records, 3u);
  EXPECT_EQ(result.zone_map.num_interactions, all.size());
  Timestamp min_t = all.front().t;
  Timestamp max_t = all.back().t;
  EXPECT_EQ(result.zone_map.min_t, min_t);
  EXPECT_EQ(result.zone_map.max_t, max_t);
  EXPECT_TRUE(result.zone_map.OverlapsTime(min_t - 1.0, min_t));
  EXPECT_FALSE(result.zone_map.OverlapsTime(max_t + 1.0, max_t + 2.0));
}

TEST(Segment, UnsealedEndsClean) {
  ScratchDir dir("seg_open");
  const std::string path = st::JoinPath(dir.path(), st::SegmentFileName(0));
  const std::vector<Interaction> all = WriteSegmentFile(path, {2, 2}, false);

  st::SegmentReadResult result;
  ASSERT_TRUE(st::ReadSegment(st::Env::Posix(), path, &result).ok());
  EXPECT_EQ(result.end, st::SegmentEnd::kClean);
  EXPECT_FALSE(result.sealed);
  ExpectInteractionsEqual(all, result.interactions, "unsealed");
  // The recomputed zone map still covers the data.
  EXPECT_EQ(result.zone_map.num_interactions, all.size());
}

TEST(Segment, TruncationAtEveryOffsetIsACleanStop) {
  ScratchDir dir("seg_trunc");
  const std::string path = st::JoinPath(dir.path(), st::SegmentFileName(0));
  const std::vector<Interaction> all = WriteSegmentFile(path, {3, 2, 4}, true);
  const std::vector<uint8_t> bytes = SlurpFile(path);

  // Record boundaries: (end offset, cumulative interactions). The
  // footer is a record too, with the full count.
  std::vector<std::pair<size_t, size_t>> boundaries;
  boundaries.push_back({st::kSegmentHeaderBytes, 0});
  size_t offset = st::kSegmentHeaderBytes;
  size_t cumulative = 0;
  for (const size_t count : {size_t{3}, size_t{2}, size_t{4}}) {
    offset += st::kRecordHeaderBytes + 4 + count * st::kInteractionWireBytes;
    cumulative += count;
    boundaries.push_back({offset, cumulative});
  }
  boundaries.push_back({bytes.size(), cumulative});

  const std::string trunc = st::JoinPath(dir.path(), "trunc.bin");
  for (size_t len = 0; len <= bytes.size(); ++len) {
    DumpFile(trunc, std::vector<uint8_t>(bytes.begin(), bytes.begin() + len));
    st::SegmentReadResult result;
    ASSERT_TRUE(st::ReadSegment(st::Env::Posix(), trunc, &result).ok())
        << "len " << len;
    // Truncation is always a clean stop at a record boundary — never a
    // checksum accusation, never an over-read.
    size_t expected = 0;
    bool at_boundary = len == 0;
    for (const auto& [end, count] : boundaries) {
      if (len >= end) expected = count;
      if (len == end) at_boundary = true;
    }
    EXPECT_EQ(result.interactions.size(), expected) << "len " << len;
    EXPECT_TRUE(IsPrefixOf(result.interactions, all)) << "len " << len;
    if (len < bytes.size()) {
      EXPECT_FALSE(result.sealed) << "len " << len;
      EXPECT_EQ(result.end,
                at_boundary && len >= st::kSegmentHeaderBytes
                    ? st::SegmentEnd::kClean
                    : st::SegmentEnd::kTorn)
          << "len " << len;
    } else {
      EXPECT_TRUE(result.sealed);
      EXPECT_EQ(result.end, st::SegmentEnd::kClean);
    }
  }
}

TEST(Segment, BitFlipAtEveryByteYieldsAPrefix) {
  ScratchDir dir("seg_flip");
  const std::string path = st::JoinPath(dir.path(), st::SegmentFileName(0));
  const std::vector<Interaction> all = WriteSegmentFile(path, {3, 2, 4}, true);
  const std::vector<uint8_t> bytes = SlurpFile(path);

  const std::string flipped = st::JoinPath(dir.path(), "flip.bin");
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> copy = bytes;
    copy[i] ^= 0x01;
    DumpFile(flipped, copy);
    st::SegmentReadResult result;
    ASSERT_TRUE(st::ReadSegment(st::Env::Posix(), flipped, &result).ok())
        << "flip at " << i;
    // Whatever a single flipped bit does — corrupt header, failed
    // record checksum, poisoned length or footer — the recovered
    // interactions are an exact prefix of what was written, and the
    // flip never goes unnoticed: every byte is covered by the header
    // value checks, a record CRC, or the footer cross-check, so a
    // flipped file can never read back as a clean sealed segment.
    EXPECT_TRUE(IsPrefixOf(result.interactions, all)) << "flip at " << i;
    EXPECT_FALSE(result.sealed && result.end == st::SegmentEnd::kClean)
        << "flip at " << i;
  }
}

// --- Snapshot store --------------------------------------------------------

TEST(SnapshotStore, RoundtripAndNewestSelection) {
  ScratchDir dir("snap");
  st::SnapshotStore store(st::Env::Posix(), dir.path());

  const std::vector<uint8_t> state_a = {1, 2, 3};
  const std::vector<uint8_t> state_b = {9, 8, 7, 6};
  ASSERT_TRUE(store.Write(100, 10.0, state_a).ok());
  ASSERT_TRUE(store.Write(200, 20.0, state_b).ok());

  auto list = store.List();
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ((*list)[0].prefix, 100u);
  EXPECT_EQ((*list)[1].prefix, 200u);

  size_t skipped = 0;
  auto all = store.LoadValid(500, &skipped);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ(all->front().state, state_a);
  EXPECT_EQ(all->back().prefix, 200u);
  EXPECT_EQ(all->back().watermark, 20.0);
  EXPECT_EQ(all->back().state, state_b);
  EXPECT_EQ(skipped, 0u);

  // A prefix cap below 200 leaves the older snapshot newest; below 100
  // none (recover from the beginning).
  auto capped = store.LoadValid(150, &skipped);
  ASSERT_TRUE(capped.ok());
  ASSERT_EQ(capped->size(), 1u);
  EXPECT_EQ(capped->back().prefix, 100u);
  EXPECT_EQ(capped->back().state, state_a);
  auto none = store.LoadValid(99, &skipped);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(SnapshotStore, FallsBackPastCorruption) {
  ScratchDir dir("snap_corrupt");
  st::SnapshotStore store(st::Env::Posix(), dir.path());
  ASSERT_TRUE(store.Write(100, 10.0, {1, 2, 3}).ok());
  ASSERT_TRUE(store.Write(200, 20.0, {4, 5, 6}).ok());

  // Rot a bit in the newest snapshot.
  const std::string newest_path =
      st::JoinPath(dir.path(), st::SnapshotFileName(200));
  std::vector<uint8_t> bytes = SlurpFile(newest_path);
  bytes[bytes.size() / 2] ^= 0x10;
  DumpFile(newest_path, bytes);

  size_t skipped = 0;
  auto loaded = store.LoadValid(500, &skipped);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->back().prefix, 100u);
  EXPECT_EQ(skipped, 1u);

  // Every snapshot corrupt: the empty prefix-0 result, never an error.
  const std::string older_path =
      st::JoinPath(dir.path(), st::SnapshotFileName(100));
  bytes = SlurpFile(older_path);
  bytes[0] ^= 0xff;
  DumpFile(older_path, bytes);
  loaded = store.LoadValid(500, &skipped);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
  EXPECT_EQ(skipped, 2u);
}

TEST(SnapshotStore, TruncationAndFlipNeverLoad) {
  ScratchDir dir("snap_fuzz");
  st::SnapshotStore store(st::Env::Posix(), dir.path());
  const std::vector<uint8_t> state = {10, 20, 30, 40, 50};
  ASSERT_TRUE(store.Write(64, 6.5, state).ok());
  const std::string path = st::JoinPath(dir.path(), st::SnapshotFileName(64));
  const std::vector<uint8_t> bytes = SlurpFile(path);

  for (size_t len = 0; len < bytes.size(); ++len) {
    DumpFile(path, std::vector<uint8_t>(bytes.begin(), bytes.begin() + len));
    st::LoadedSnapshot out;
    const Status status = store.Load({64, st::SnapshotFileName(64)}, &out);
    EXPECT_FALSE(status.ok()) << "truncated to " << len;
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> copy = bytes;
    copy[i] ^= 0x01;
    DumpFile(path, copy);
    st::LoadedSnapshot out;
    const Status status = store.Load({64, st::SnapshotFileName(64)}, &out);
    EXPECT_FALSE(status.ok()) << "flip at " << i;
  }
}

TEST(SnapshotStore, SweepRemovesTempFilesAndLaterSnapshotsOnly) {
  ScratchDir dir("snap_sweep");
  st::SnapshotStore store(st::Env::Posix(), dir.path());
  ASSERT_TRUE(store.Write(7, 1.0, {1}).ok());
  ASSERT_TRUE(store.Write(9, 2.0, {2}).ok());
  DumpFile(st::JoinPath(dir.path(), "tmp-snap-junk.snap"), {1, 2});
  ASSERT_TRUE(store.Sweep(7).ok());
  auto names = st::Env::Posix()->ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 1u);
  EXPECT_EQ((*names)[0], st::SnapshotFileName(7));
}

// --- Fault-injecting env ---------------------------------------------------

TEST(FaultEnv, ModesBehaveAsDocumented) {
  ScratchDir dir("fault");
  st::FaultInjectingEnv env(st::Env::Posix());
  const std::string path = st::JoinPath(dir.path(), "f");
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8};

  // kFailWrite: clean failure, nothing lands.
  env.Arm({st::FaultMode::kFailWrite, 0, false});
  auto file = env.NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  Status status = (*file)->Append(payload.data(), payload.size());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(env.faults_injected(), 1u);
  // Next op passes (one-shot plan).
  EXPECT_TRUE((*file)->Append(payload.data(), payload.size()).ok());
  ASSERT_TRUE((*file)->Close().ok());

  // kShortWrite: half persisted, error observed.
  env.Arm({st::FaultMode::kShortWrite, 0, false});
  file = env.NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  status = (*file)->Append(payload.data(), payload.size());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  ASSERT_TRUE((*file)->Close().ok());
  auto size = env.FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, payload.size() / 2);

  // kTornWrite: half persisted, success reported, later writes vanish.
  env.Arm({st::FaultMode::kTornWrite, 1, false});
  file = env.NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append(payload.data(), payload.size()).ok());  // op 0
  EXPECT_TRUE((*file)->Append(payload.data(), payload.size()).ok());  // torn
  EXPECT_TRUE((*file)->Append(payload.data(), payload.size()).ok());  // gone
  EXPECT_TRUE((*file)->Sync().ok());  // silently dropped too
  ASSERT_TRUE((*file)->Close().ok());
  size = env.FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, payload.size() + payload.size() / 2);

  // kCorruptWrite: full length, one bit off.
  env.Arm({st::FaultMode::kCorruptWrite, 0, false});
  file = env.NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append(payload.data(), payload.size()).ok());
  ASSERT_TRUE((*file)->Close().ok());
  env.Disarm();
  std::vector<uint8_t> bytes = SlurpFile(path);
  ASSERT_EQ(bytes.size(), payload.size());
  size_t diffs = 0;
  for (size_t i = 0; i < bytes.size(); ++i) diffs += bytes[i] != payload[i];
  EXPECT_EQ(diffs, 1u);

  // kFailSync.
  env.Arm({st::FaultMode::kFailSync, 1, false});
  file = env.NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append(payload.data(), payload.size()).ok());
  EXPECT_EQ((*file)->Sync().code(), StatusCode::kUnavailable);
  ASSERT_TRUE((*file)->Close().ok());

  // kFailRead / kCorruptRead.
  env.Arm({st::FaultMode::kFailRead, 0, false});
  auto reader = env.NewRandomAccessFile(path);
  ASSERT_TRUE(reader.ok());
  std::vector<uint8_t> out(payload.size());
  size_t read = 0;
  EXPECT_EQ((*reader)->Read(0, out.size(), out.data(), &read).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE((*reader)->Read(0, out.size(), out.data(), &read).ok());

  env.Arm({st::FaultMode::kCorruptRead, 0, false});
  reader = env.NewRandomAccessFile(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE((*reader)->Read(0, out.size(), out.data(), &read).ok());
  diffs = 0;
  for (size_t i = 0; i < out.size(); ++i) diffs += out[i] != payload[i];
  EXPECT_EQ(diffs, 1u);
}

// --- DurableLog + recovery -------------------------------------------------

st::DurableLogOptions SmallSegments() {
  st::DurableLogOptions options;
  options.rotate_bytes = 2048;  // force several segments per run
  return options;
}

TEST(DurableLog, RotatesAndRecoversClean) {
  ScratchDir dir("dlog");
  const Tin tin = GeneratedTin(24, 400, 11);
  const std::vector<Interaction>& data = tin.interactions();

  auto log = st::DurableLog::Open(st::Env::Posix(), dir.path(), 0, 0,
                                  SmallSegments());
  ASSERT_TRUE(log.ok());
  for (size_t i = 0; i < data.size(); i += 25) {
    const size_t n = std::min<size_t>(25, data.size() - i);
    ASSERT_TRUE((*log)->Append(&data[i], n).ok());
  }
  EXPECT_EQ((*log)->prefix(), data.size());
  EXPECT_FALSE((*log)->degraded());
  ASSERT_TRUE((*log)->Seal().ok());

  // Several rotation-bounded segments on disk, all sealed or clean.
  auto names = st::Env::Posix()->ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  EXPECT_GT(names->size(), 2u);

  st::ReadLogResult recovered;
  ASSERT_TRUE(st::ReadLog(st::Env::Posix(), dir.path(), &recovered).ok());
  ExpectInteractionsEqual(data, recovered.interactions, "clean recovery");
  EXPECT_EQ(recovered.torn_tails, 0u);
  EXPECT_EQ(recovered.corrupt_records, 0u);
  EXPECT_EQ(recovered.segments_dropped, 0u);
  EXPECT_EQ(recovered.next_seq, recovered.segments_scanned);
}

TEST(DurableLog, DegradePolicySwallowsFailuresAndLatches) {
  ScratchDir dir("dlog_degrade");
  st::FaultInjectingEnv env(st::Env::Posix());
  const Tin tin = GeneratedTin(24, 120, 12);
  const std::vector<Interaction>& data = tin.interactions();

  st::DurableLogOptions options = SmallSegments();
  options.failure_policy = st::FailurePolicy::kDegrade;
  auto log = st::DurableLog::Open(&env, dir.path(), 0, 0, options);
  ASSERT_TRUE(log.ok());

  env.Arm({st::FaultMode::kFailWrite, 4, true});
  for (size_t i = 0; i < data.size(); i += 20) {
    const size_t n = std::min<size_t>(20, data.size() - i);
    // Every append reports Ok — the pipeline never observes the disk.
    ASSERT_TRUE((*log)->Append(&data[i], n).ok());
  }
  EXPECT_TRUE((*log)->degraded());
  // The global count still tracks what the pipeline applied.
  EXPECT_EQ((*log)->prefix(), data.size());
  EXPECT_TRUE((*log)->Sync().ok());
  EXPECT_TRUE((*log)->WriteSnapshot(data.size(), 1.0, {1, 2}).ok());
  EXPECT_TRUE((*log)->Seal().ok());

  // What did land is still a recoverable prefix.
  env.Disarm();
  st::ReadLogResult recovered;
  ASSERT_TRUE(st::ReadLog(st::Env::Posix(), dir.path(), &recovered).ok());
  EXPECT_TRUE(IsPrefixOf(recovered.interactions, data));
  EXPECT_LT(recovered.interactions.size(), data.size());
}

/// Simulated serve writer: apply a batch to the tracker, append it to
/// the durable log, snapshot every `snapshot_every` interactions —
/// stopping at the first storage error exactly like the fail-stop
/// ingest loop. Returns false on storage error (expected under some
/// fault modes), true on a clean drain.
bool SimulatedIngest(st::Env* env, const std::string& dir, Tracker* tracker,
                     const std::vector<Interaction>& data, size_t batch,
                     size_t snapshot_every) {
  auto log = st::DurableLog::Open(env, dir, 0, 0, SmallSegments());
  if (!log.ok()) return false;
  size_t last_snapshot = 0;
  for (size_t i = 0; i < data.size();) {
    const size_t n = std::min(batch, data.size() - i);
    for (size_t j = 0; j < n; ++j) {
      const Status status = tracker->Process(data[i + j]);
      EXPECT_TRUE(status.ok()) << status.message();
    }
    if (!(*log)->Append(&data[i], n).ok()) return false;
    i += n;
    if (i - last_snapshot >= snapshot_every) {
      last_snapshot = i;
      std::vector<uint8_t> state;
      tracker->SaveState(&state);
      if (!(*log)->WriteSnapshot(i, data[i - 1].t, state).ok()) return false;
    }
  }
  return (*log)->Seal().ok();
}

// The headline contract, held across every tracker the registry can
// build and every injectable fault: whatever prefix survives on disk,
// recovery's state equals a fresh tracker's clean replay of exactly
// that prefix, bit for bit.
TEST(Recovery, EveryTrackerEveryFaultModeRecoversBitExactly) {
  const Tin tin = GeneratedTin(32, 600, 13);
  const std::vector<Interaction>& data = tin.interactions();
  const DatasetStats stats = tin.Stats();

  const std::vector<uint64_t> triggers = {3, 17};
  for (const std::string& name : TrackerRegistry::Global().Names()) {
    auto factory =
        TrackerRegistry::Global().Factory(StreamingSpec(name), stats);
    ASSERT_TRUE(factory.ok()) << name;
    for (const st::FaultMode mode : st::AllFaultModes()) {
      for (const uint64_t trigger : triggers) {
        const std::string context = name + "/" +
                                    std::string(st::FaultModeName(mode)) +
                                    "/op" + std::to_string(trigger);
        ScratchDir dir("matrix");
        st::FaultInjectingEnv env(st::Env::Posix());
        const bool read_side = mode == st::FaultMode::kFailRead ||
                               mode == st::FaultMode::kCorruptRead;

        // Ingest — faulted for write-side modes, clean for read-side.
        if (!read_side) env.Arm({mode, trigger, false});
        std::unique_ptr<Tracker> live = (*factory)();
        const bool ingest_ok =
            SimulatedIngest(&env, dir.path(), live.get(), data, 25, 100);

        // Recover — faulted for read-side modes, clean otherwise.
        if (read_side) {
          env.Arm({mode, trigger, false});
        } else {
          env.Disarm();
        }
        st::RecoveryManager manager(&env, dir.path());
        auto recovered = manager.Recover(*factory);
        if (mode == st::FaultMode::kFailRead && !recovered.ok()) {
          // An I/O error during recovery is a real error, surfaced —
          // and a retry on the healed disk succeeds in full. (Whether
          // the one-shot fault fires at all depends on where the
          // trigger op lands among the recovery reads.)
          EXPECT_EQ(recovered.status().code(), StatusCode::kUnavailable)
              << context;
          env.Disarm();
          recovered = manager.Recover(*factory);
        } else {
          env.Disarm();
        }
        ASSERT_TRUE(recovered.ok()) << context << ": "
                                    << recovered.status().message();

        // The trusted log is an exact prefix of what was fed.
        ASSERT_TRUE(IsPrefixOf(recovered->log, data)) << context;
        ASSERT_EQ(recovered->prefix, recovered->log.size()) << context;
        if (!read_side && !ingest_ok) {
          // Fail-stop observed a storage error mid-stream, so the
          // durable prefix must stop short of the full feed.
          EXPECT_LT(recovered->prefix, data.size()) << context;
        }
        if (mode == st::FaultMode::kTornWrite) {
          // The silent crash always loses the tail: everything after
          // the torn op vanished even though the writer saw only Ok.
          EXPECT_LT(recovered->prefix, data.size()) << context;
        }

        // Bit-exact equivalence with a clean replay of that prefix.
        std::unique_ptr<Tracker> reference = (*factory)();
        for (const Interaction& interaction : recovered->log) {
          ASSERT_TRUE(reference->Process(interaction).ok()) << context;
        }
        std::vector<uint8_t> reference_state;
        reference->SaveState(&reference_state);
        EXPECT_EQ(recovered->state, reference_state) << context;
      }
    }
  }
}

TEST(Recovery, ResumedLogReadsAsOneContinuousHistory) {
  // Crash (torn tail) -> recover -> resume appending at the recovered
  // position -> recover again: the trusted log must be the full
  // concatenation, with the torn segment and the resumed one joined at
  // exactly the truncation point.
  ScratchDir dir("resume");
  st::FaultInjectingEnv env(st::Env::Posix());
  const Tin tin = GeneratedTin(24, 300, 14);
  const std::vector<Interaction>& data = tin.interactions();
  const size_t half = data.size() / 2;

  env.Arm({st::FaultMode::kTornWrite, 9, false});
  {
    auto log = st::DurableLog::Open(&env, dir.path(), 0, 0, SmallSegments());
    ASSERT_TRUE(log.ok());
    for (size_t i = 0; i < half; i += 20) {
      const size_t n = std::min<size_t>(20, half - i);
      ASSERT_TRUE((*log)->Append(&data[i], n).ok());  // torn: reports Ok
    }
    (void)(*log)->Seal();
  }
  env.Disarm();

  st::ReadLogResult first;
  ASSERT_TRUE(st::ReadLog(&env, dir.path(), &first).ok());
  const size_t recovered_prefix = first.interactions.size();
  ASSERT_TRUE(IsPrefixOf(first.interactions, data));
  ASSERT_LT(recovered_prefix, half);  // the tear lost something
  EXPECT_GE(first.torn_tails, 1u);

  // Resume exactly where recovery stopped, as a restarted serve would.
  {
    auto log = st::DurableLog::Open(&env, dir.path(), recovered_prefix,
                                    first.next_seq, SmallSegments());
    ASSERT_TRUE(log.ok());
    for (size_t i = recovered_prefix; i < data.size(); i += 20) {
      const size_t n = std::min<size_t>(20, data.size() - i);
      ASSERT_TRUE((*log)->Append(&data[i], n).ok());
    }
    ASSERT_TRUE((*log)->Seal().ok());
  }

  st::ReadLogResult second;
  ASSERT_TRUE(st::ReadLog(&env, dir.path(), &second).ok());
  ExpectInteractionsEqual(data, second.interactions, "resumed log");
}

/// Appends data[from, to) in batches of 20. With a tracker, each batch
/// is applied to it first and a snapshot is written every 100
/// interactions. Every call reports Ok, as under a silent fault.
void AppendRange(st::DurableLog* log, const std::vector<Interaction>& data,
                 size_t from, size_t to, Tracker* tracker) {
  for (size_t i = from; i < to;) {
    const size_t n = std::min<size_t>(20, to - i);
    for (size_t j = 0; tracker != nullptr && j < n; ++j) {
      ASSERT_TRUE(tracker->Process(data[i + j]).ok());
    }
    ASSERT_TRUE(log->Append(&data[i], n).ok());
    i += n;
    if (tracker != nullptr && i % 100 == 0) {
      std::vector<uint8_t> state;
      tracker->SaveState(&state);
      ASSERT_TRUE(log->WriteSnapshot(i, data[i - 1].t, state).ok());
    }
  }
  ASSERT_TRUE(log->Seal().ok());
}

TEST(Recovery, ResumeAfterMidLogCorruptionReadsAsOneHistory) {
  // Bit rot in the first segment's second record: the trusted log stops
  // there, and the segments written after it are stale. A writer resumed
  // at the trusted length must still extend one continuous history —
  // the stale segments sort before its own and must not break it.
  ScratchDir dir("resume_corrupt");
  st::FaultInjectingEnv env(st::Env::Posix());
  const Tin tin = GeneratedTin(24, 600, 14);
  const std::vector<Interaction>& data = tin.interactions();

  env.Arm({st::FaultMode::kCorruptWrite, 3, false});
  {
    auto log = st::DurableLog::Open(&env, dir.path(), 0, 0, SmallSegments());
    ASSERT_TRUE(log.ok());
    AppendRange(log->get(), data, 0, data.size(), nullptr);
  }
  env.Disarm();

  st::ReadLogResult first;
  ASSERT_TRUE(st::ReadLog(&env, dir.path(), &first).ok());
  const size_t trusted = first.interactions.size();
  ASSERT_EQ(trusted, 20u);
  ASSERT_GE(first.segments_dropped, 1u);

  {
    auto log = st::DurableLog::Open(&env, dir.path(), trusted, first.next_seq,
                                    SmallSegments());
    ASSERT_TRUE(log.ok());
    AppendRange(log->get(), data, trusted, data.size(), nullptr);
  }
  st::ReadLogResult second;
  ASSERT_TRUE(st::ReadLog(&env, dir.path(), &second).ok());
  ExpectInteractionsEqual(data, second.interactions, "resumed log");
  EXPECT_EQ(second.segments_dropped, 0u);
}

TEST(Recovery, ResumedHistoryNeverRestoresAStaleSnapshot) {
  // One segment, bit rot in its second record, snapshots every 100
  // interactions after it: those snapshot files are valid but belong to
  // a history the trusted log lost. A writer resumed at the trusted
  // length with different interactions grows the log past them again;
  // recovery must still equal a clean replay of the new log.
  ScratchDir dir("resume_stale_snapshot");
  st::FaultInjectingEnv env(st::Env::Posix());
  const Tin tin = GeneratedTin(24, 600, 14);
  const std::vector<Interaction>& data = tin.interactions();
  auto factory = TrackerRegistry::Global().Factory(StreamingSpec("Prop-sparse"),
                                                   tin.Stats());
  ASSERT_TRUE(factory.ok());
  st::DurableLogOptions one_segment;
  one_segment.rotate_bytes = 1 << 20;

  env.Arm({st::FaultMode::kCorruptWrite, 3, false});
  {
    auto log = st::DurableLog::Open(&env, dir.path(), 0, 0, one_segment);
    ASSERT_TRUE(log.ok());
    std::unique_ptr<Tracker> writer = (*factory)();
    AppendRange(log->get(), data, 0, data.size(), writer.get());
  }
  env.Disarm();

  st::ReadLogResult first;
  ASSERT_TRUE(st::ReadLog(&env, dir.path(), &first).ok());
  const size_t trusted = first.interactions.size();
  ASSERT_EQ(trusted, 20u);
  st::SnapshotStore store(&env, dir.path());
  auto stale = store.List();
  ASSERT_TRUE(stale.ok());
  ASSERT_FALSE(stale->empty());
  ASSERT_GT(stale->back().prefix, trusted);

  std::vector<Interaction> resumed = data;
  for (size_t i = trusted; i < resumed.size(); ++i) resumed[i].quantity *= 2;
  {
    auto log = st::DurableLog::Open(&env, dir.path(), trusted, first.next_seq,
                                    one_segment);
    ASSERT_TRUE(log.ok());
    AppendRange(log->get(), resumed, trusted, resumed.size(), nullptr);
  }

  st::RecoveryManager manager(&env, dir.path());
  auto recovered = manager.Recover(*factory);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  ExpectInteractionsEqual(resumed, recovered->log, "resumed history");
  std::unique_ptr<Tracker> reference = (*factory)();
  for (const Interaction& interaction : resumed) {
    ASSERT_TRUE(reference->Process(interaction).ok());
  }
  std::vector<uint8_t> reference_state;
  reference->SaveState(&reference_state);
  EXPECT_EQ(recovered->state, reference_state);
  EXPECT_TRUE(recovered->snapshots.empty());
}

// --- Tracker snapshot fuzzing (serialize hardening) ------------------------

TEST(SnapshotFuzz, TruncateAndBitFlipEveryTrackerStateSafely) {
  const Tin tin = GeneratedTin(20, 250, 15);
  const DatasetStats stats = tin.Stats();

  for (const std::string& name : TrackerRegistry::Global().Names()) {
    auto factory =
        TrackerRegistry::Global().Factory(StreamingSpec(name), stats);
    ASSERT_TRUE(factory.ok()) << name;
    std::unique_ptr<Tracker> tracker = (*factory)();
    for (const Interaction& interaction : tin.interactions()) {
      ASSERT_TRUE(tracker->Process(interaction).ok()) << name;
    }
    std::vector<uint8_t> state;
    tracker->SaveState(&state);
    ASSERT_FALSE(state.empty()) << name;

    // Every truncation must fail loudly — a shorter byte string can
    // never restore (every vector is length-gated, every span sized).
    for (size_t len = 0; len < state.size(); ++len) {
      std::unique_ptr<Tracker> victim = (*factory)();
      const Status status = victim->RestoreState(state.data(), len);
      EXPECT_FALSE(status.ok()) << name << " truncated to " << len;
    }

    // Every single-bit flip must be rejected or absorbed — never an
    // out-of-bounds read or a crash (the ASan leg enforces "never").
    for (size_t i = 0; i < state.size(); ++i) {
      std::vector<uint8_t> copy = state;
      copy[i] ^= 0x01;
      std::unique_ptr<Tracker> victim = (*factory)();
      (void)victim->RestoreState(copy.data(), copy.size());
    }

    // Null data is an error, not a dereference, whatever the size.
    std::unique_ptr<Tracker> victim = (*factory)();
    EXPECT_FALSE(victim->RestoreState(nullptr, state.size()).ok()) << name;
  }
}

// --- Serve integration -----------------------------------------------------

ServeOptions DurableServeOptions(const std::string& dir, st::Env* env) {
  ServeOptions options;
  options.epoch_interval = 256;
  options.ingest_batch = 64;
  options.ring_size = 3;
  options.durability.dir = dir;
  options.durability.env = env;
  options.durability.log.rotate_bytes = 4096;
  return options;
}

void ExpectSameBuffer(const Buffer& expected, const Buffer& actual,
                      const std::string& context) {
  EXPECT_EQ(expected.total, actual.total) << context;
  ASSERT_EQ(expected.entries.size(), actual.entries.size()) << context;
  for (size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_TRUE(expected.entries[i] == actual.entries[i])
        << context << " entry " << i;
  }
}

TEST(ServeDurable, CleanRestartResumesBitExactly) {
  ScratchDir dir("serve_restart");
  const Tin tin = GeneratedTin(40, 2000, 16);
  const std::vector<Interaction>& data = tin.interactions();
  const DatasetStats stats = tin.Stats();
  const TrackerSpec spec = StreamingSpec("Prop-sparse");
  const size_t half = data.size() / 2;

  // Phase 1: ingest the first half, shut down cleanly.
  {
    auto service = ProvenanceService::Create(
        spec, stats, DurableServeOptions(dir.path(), nullptr));
    ASSERT_TRUE(service.ok()) << service.status().message();
    ASSERT_TRUE((*service)
                    ->Start(std::make_unique<VectorStream>(
                        stats.num_vertices,
                        std::vector<Interaction>(data.begin(),
                                                 data.begin() + half)))
                    .ok());
    ASSERT_TRUE((*service)->WaitIngest().ok());
  }

  // Phase 2: a new service over the same directory resumes where the
  // old one stopped and serves identical answers.
  auto service = ProvenanceService::Create(
      spec, stats, DurableServeOptions(dir.path(), nullptr));
  ASSERT_TRUE(service.ok()) << service.status().message();
  EXPECT_EQ((*service)->LatestEpoch().watermark, data[half - 1].t);

  auto factory = TrackerRegistry::Global().Factory(spec, stats);
  ASSERT_TRUE(factory.ok());
  std::unique_ptr<Tracker> reference = (*factory)();
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(reference->Process(data[i]).ok());
  }
  for (VertexId v = 0; v < stats.num_vertices; ++v) {
    const QueryResult result = (*service)->Provenance(v);
    ASSERT_TRUE(result.status.ok());
    ExpectSameBuffer(reference->Provenance(v), result.buffer,
                     "restart vertex " + std::to_string(v));
  }

  // Historical queries reach into the recovered (pre-restart) past.
  const Timestamp old_t = data[half / 2].t;
  const QueryResult historical = (*service)->Provenance(7, old_t);
  ASSERT_TRUE(historical.status.ok());
  std::unique_ptr<Tracker> past = (*factory)();
  for (size_t i = 0; i < half && data[i].t <= old_t; ++i) {
    ASSERT_TRUE(past->Process(data[i]).ok());
  }
  ExpectSameBuffer(past->Provenance(7), historical.buffer, "historical");

  // Resume ingesting the second half; the end state must equal one
  // uninterrupted replay of everything.
  ASSERT_TRUE((*service)
                  ->Start(std::make_unique<VectorStream>(
                      stats.num_vertices,
                      std::vector<Interaction>(data.begin() + half,
                                               data.end())))
                  .ok());
  ASSERT_TRUE((*service)->WaitIngest().ok());
  for (size_t i = half; i < data.size(); ++i) {
    ASSERT_TRUE(reference->Process(data[i]).ok());
  }
  for (VertexId v = 0; v < stats.num_vertices; ++v) {
    const QueryResult result = (*service)->Provenance(v);
    ASSERT_TRUE(result.status.ok());
    ExpectSameBuffer(reference->Provenance(v), result.buffer,
                     "resumed vertex " + std::to_string(v));
  }

  const std::string statusz = (*service)->StatuszJson();
  EXPECT_NE(statusz.find("\"storage\":{\"enabled\":true"), std::string::npos);
  EXPECT_NE(statusz.find("\"degraded\":false"), std::string::npos);
}

TEST(ServeDurable, TornCrashRecoversToCleanReplayOfTheTrustedPrefix) {
  const Tin tin = GeneratedTin(40, 2000, 17);
  const std::vector<Interaction>& data = tin.interactions();
  const DatasetStats stats = tin.Stats();

  for (const std::string& name :
       {std::string("FIFO"), std::string("Prop-sparse"),
        std::string("Windowed")}) {
    ScratchDir dir("serve_crash");
    st::FaultInjectingEnv env(st::Env::Posix());
    const TrackerSpec spec = StreamingSpec(name);

    // The "crash": a torn write mid-ingest. The service believes every
    // write landed; the disk kept only a prefix.
    env.Arm({st::FaultMode::kTornWrite, 21, false});
    {
      auto service = ProvenanceService::Create(
          spec, stats, DurableServeOptions(dir.path(), &env));
      ASSERT_TRUE(service.ok()) << name;
      ASSERT_TRUE((*service)
                      ->Start(std::make_unique<VectorStream>(
                          stats.num_vertices, data))
                      .ok());
      ASSERT_TRUE((*service)->WaitIngest().ok()) << name;
    }
    env.Disarm();

    // What does the disk actually hold?
    auto factory = TrackerRegistry::Global().Factory(spec, stats);
    ASSERT_TRUE(factory.ok());
    st::RecoveryManager manager(&env, dir.path());
    auto recovered = manager.Recover(*factory);
    ASSERT_TRUE(recovered.ok()) << name;
    ASSERT_TRUE(IsPrefixOf(recovered->log, data)) << name;
    ASSERT_LT(recovered->prefix, data.size()) << name;
    ASSERT_GT(recovered->prefix, 0u) << name;

    // Restarted service == clean replay of exactly that prefix.
    auto service = ProvenanceService::Create(
        spec, stats, DurableServeOptions(dir.path(), &env));
    ASSERT_TRUE(service.ok()) << name << ": " << service.status().message();
    std::unique_ptr<Tracker> reference = (*factory)();
    for (const Interaction& interaction : recovered->log) {
      ASSERT_TRUE(reference->Process(interaction).ok());
    }
    for (VertexId v = 0; v < stats.num_vertices; ++v) {
      const QueryResult result = (*service)->Provenance(v);
      ASSERT_TRUE(result.status.ok());
      ExpectSameBuffer(reference->Provenance(v), result.buffer,
                       name + " crash vertex " + std::to_string(v));
    }

    // And it can keep ingesting from the recovery watermark.
    std::vector<Interaction> rest(
        data.begin() + static_cast<ptrdiff_t>(recovered->prefix), data.end());
    ASSERT_TRUE((*service)
                    ->Start(std::make_unique<VectorStream>(stats.num_vertices,
                                                           std::move(rest)))
                    .ok());
    ASSERT_TRUE((*service)->WaitIngest().ok()) << name;
    for (size_t i = recovered->prefix; i < data.size(); ++i) {
      ASSERT_TRUE(reference->Process(data[i]).ok());
    }
    for (VertexId v = 0; v < stats.num_vertices; ++v) {
      const QueryResult result = (*service)->Provenance(v);
      ASSERT_TRUE(result.status.ok());
      ExpectSameBuffer(reference->Provenance(v), result.buffer,
                       name + " resumed vertex " + std::to_string(v));
    }
  }
}

TEST(ServeDurable, DegradePolicyKeepsServingAndFlipsTheGauge) {
  ScratchDir dir("serve_degrade");
  st::FaultInjectingEnv env(st::Env::Posix());
  const Tin tin = GeneratedTin(30, 1200, 18);
  const DatasetStats stats = tin.Stats();
  const TrackerSpec spec = StreamingSpec("LIFO");

  ServeOptions options = DurableServeOptions(dir.path(), &env);
  options.durability.log.failure_policy = st::FailurePolicy::kDegrade;
  env.Arm({st::FaultMode::kFailWrite, 6, true});  // the disk stays broken

  auto service = ProvenanceService::Create(spec, stats, options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)
                  ->Start(std::make_unique<VectorStream>(stats.num_vertices,
                                                         tin.interactions()))
                  .ok());
  // The broken disk never surfaces: ingest completes, queries answer.
  ASSERT_TRUE((*service)->WaitIngest().ok());
  const QueryResult result = (*service)->Provenance(3);
  EXPECT_TRUE(result.status.ok());

#if defined(TINPROV_METRICS_ENABLED)
  // The gauge mirror only exists when metrics are compiled in ...
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetGauge("storage.degraded")->Value(),
      1.0);
#endif
  // ... but statusz reads DurableLog's atomic directly, so the degraded
  // flag must surface in every build flavor.
  const std::string statusz = (*service)->StatuszJson();
  EXPECT_NE(statusz.find("\"degraded\":true"), std::string::npos);
  env.Disarm();
}

// Snapshots follow log volume, not epochs: one is cut only once the
// interactions since the previous one, at sizeof(Interaction) each,
// reach that snapshot's size. So every snapshot but the last is paid for
// by log bytes, and all of them together fit in the segments plus the
// largest one.
TEST(ServeDurable, SnapshotBytesStayWithinLogBytesPlusOneSnapshot) {
  const Tin tin = GeneratedTin(40, 6000, 22);
  for (const std::string& name :
       {std::string("FIFO"), std::string("Prop-sparse"),
        std::string("Windowed")}) {
    ScratchDir dir("serve_cadence");
    const ServeOptions options = DurableServeOptions(dir.path(), nullptr);
    {
      auto service =
          ProvenanceService::Create(StreamingSpec(name), tin.Stats(), options);
      ASSERT_TRUE(service.ok()) << name;
      ASSERT_TRUE((*service)
                      ->Start(std::make_unique<VectorStream>(
                          tin.num_vertices(), tin.interactions()))
                      .ok());
      ASSERT_TRUE((*service)->WaitIngest().ok()) << name;
    }

    auto names = st::Env::Posix()->ListDir(dir.path());
    ASSERT_TRUE(names.ok());
    uint64_t segment_bytes = 0;
    uint64_t snapshot_bytes = 0;
    uint64_t largest_snapshot = 0;
    size_t snapshots = 0;
    for (const std::string& file : *names) {
      uint64_t id = 0;
      auto size = st::Env::Posix()->FileSize(st::JoinPath(dir.path(), file));
      ASSERT_TRUE(size.ok()) << file;
      if (st::ParseSegmentFileName(file, &id)) segment_bytes += *size;
      if (st::ParseSnapshotFileName(file, &id)) {
        snapshot_bytes += *size;
        largest_snapshot = std::max<uint64_t>(largest_snapshot, *size);
        ++snapshots;
      }
    }
    EXPECT_GE(snapshots, 2u) << name;
    EXPECT_LE(snapshot_bytes, segment_bytes + largest_snapshot)
        << name << ": " << snapshots << " snapshots";
  }
}

TEST(ServeDurable, StatuszReportsDisabledWithoutADirectory) {
  const Tin tin = GeneratedTin(20, 300, 19);
  auto service = ProvenanceService::Create(StreamingSpec("FIFO"), tin.Stats(),
                                           ServeOptions{});
  ASSERT_TRUE(service.ok());
  const std::string statusz = (*service)->StatuszJson();
  EXPECT_NE(statusz.find("\"storage\":{\"enabled\":false"),
            std::string::npos);
}

TEST(ServeDurable, OpsServerRegistersStorageHealthChecks) {
  ScratchDir dir("serve_health");
  const Tin tin = GeneratedTin(20, 300, 21);
  auto service = ProvenanceService::Create(
      StreamingSpec("FIFO"), tin.Stats(),
      DurableServeOptions(dir.path(), nullptr));
  ASSERT_TRUE(service.ok());
  auto port = (*service)->EnableOpsServer(0);
  ASSERT_TRUE(port.ok());

  const obs::HealthRegistry::Report report =
      obs::HealthRegistry::Global().RunAll();
  bool durability = false;
  bool corrupt = false;
  bool headroom = false;
  for (const auto& check : report.checks) {
    if (check.name == "storage.durability") {
      durability = true;
      EXPECT_TRUE(check.result.healthy);
    }
    if (check.name == "storage.segment_corrupt") corrupt = true;
    if (check.name == "storage.disk_headroom") {
      headroom = true;
      EXPECT_GT(check.result.value, 0.0);
    }
  }
  EXPECT_TRUE(durability);
  EXPECT_TRUE(corrupt);
  EXPECT_TRUE(headroom);
  (*service)->DisableOpsServer();
}

}  // namespace
}  // namespace tinprov
