#include "storage/snapshot_store.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "storage/log_format.h"
#include "util/crc32c.h"
#include "util/serialize.h"

namespace tinprov::storage {

namespace {

constexpr char kTempPrefix[] = "tmp-";

}  // namespace

SnapshotStore::SnapshotStore(Env* env, std::string dir)
    : env_(env), dir_(std::move(dir)) {}

Status SnapshotStore::Write(uint64_t prefix, Timestamp watermark,
                            const std::vector<uint8_t>& state) {
  TINPROV_SCOPED_LATENCY_NS("storage.snapshot_write_ns");
  const std::string name = SnapshotFileName(prefix);
  const std::string temp_path = JoinPath(dir_, kTempPrefix + name);
  const std::string final_path = JoinPath(dir_, name);

  std::vector<uint8_t> bytes;
  bytes.reserve(state.size() + 64);
  ByteWriter writer(&bytes);
  writer.Append<uint32_t>(kSnapshotMagic);
  writer.Append<uint32_t>(kFormatVersion);
  writer.Append<uint64_t>(prefix);
  writer.Append<Timestamp>(watermark);
  writer.Append<uint64_t>(static_cast<uint64_t>(state.size()));
  bytes.insert(bytes.end(), state.begin(), state.end());
  writer.Append<uint32_t>(Crc32cMask(Crc32c(bytes.data(), bytes.size())));

  auto file = env_->NewWritableFile(temp_path);
  if (!file.ok()) return file.status();
  Status status = (*file)->Append(bytes.data(), bytes.size());
  if (status.ok()) status = (*file)->Sync();
  if (status.ok()) status = (*file)->Close();
  if (!status.ok()) {
    // Best-effort cleanup; the temp sweep catches what this misses.
    (void)env_->DeleteFile(temp_path);
    return status;
  }
  status = env_->RenameFile(temp_path, final_path);
  if (!status.ok()) return status;
  TINPROV_COUNTER_ADD("storage.snapshots_written", 1);
  TINPROV_COUNTER_ADD("storage.bytes_written", bytes.size());
  TINPROV_GAUGE_SET("storage.snapshot_bytes", bytes.size());
  return Status::Ok();
}

StatusOr<std::vector<SnapshotMeta>> SnapshotStore::List() const {
  auto names = env_->ListDir(dir_);
  if (!names.ok()) return names.status();
  std::vector<SnapshotMeta> metas;
  for (const std::string& name : *names) {
    uint64_t prefix = 0;
    if (!ParseSnapshotFileName(name, &prefix)) continue;
    metas.push_back({prefix, name});
  }
  std::sort(metas.begin(), metas.end(),
            [](const SnapshotMeta& a, const SnapshotMeta& b) {
              return a.prefix < b.prefix;
            });
  return metas;
}

Status SnapshotStore::Load(const SnapshotMeta& meta,
                           LoadedSnapshot* out) const {
  auto file = env_->NewRandomAccessFile(JoinPath(dir_, meta.name));
  if (!file.ok()) return file.status();
  auto size = (*file)->Size();
  if (!size.ok()) return size.status();
  std::vector<uint8_t> bytes(static_cast<size_t>(*size));
  size_t read = 0;
  if (!bytes.empty()) {
    const Status status = (*file)->Read(0, bytes.size(), bytes.data(), &read);
    if (!status.ok()) return status;
  }
  if (read != bytes.size() || bytes.size() < 4) {
    return Status::InvalidArgument("snapshot " + meta.name + " truncated");
  }

  // Validate the trailing CRC over everything before it first; only
  // then believe any field.
  ByteReader trailer(bytes.data() + bytes.size() - 4, 4);
  uint32_t masked_crc = 0;
  (void)trailer.Read(&masked_crc);
  if (Crc32cMask(Crc32c(bytes.data(), bytes.size() - 4)) != masked_crc) {
    return Status::InvalidArgument("snapshot " + meta.name +
                                   " failed its checksum");
  }

  ByteReader reader(bytes.data(), bytes.size() - 4);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t prefix = 0;
  Timestamp watermark = 0;
  uint64_t state_len = 0;
  Status status = reader.Read(&magic);
  if (status.ok()) status = reader.Read(&version);
  if (status.ok()) status = reader.Read(&prefix);
  if (status.ok()) status = reader.Read(&watermark);
  if (status.ok()) status = reader.Read(&state_len);
  if (!status.ok()) return status;
  if (magic != kSnapshotMagic || version != kFormatVersion) {
    return Status::InvalidArgument("snapshot " + meta.name +
                                   " has a foreign header");
  }
  if (prefix != meta.prefix || state_len != reader.remaining()) {
    return Status::InvalidArgument("snapshot " + meta.name +
                                   " frame disagrees with its contents");
  }
  out->prefix = prefix;
  out->watermark = watermark;
  out->state.resize(static_cast<size_t>(state_len));
  return reader.ReadSpan(out->state.data(), out->state.size());
}

StatusOr<std::vector<LoadedSnapshot>> SnapshotStore::LoadValid(
    uint64_t max_prefix, size_t* corrupt_skipped) const {
  auto metas = List();
  if (!metas.ok()) return metas.status();
  std::vector<LoadedSnapshot> out;
  *corrupt_skipped = 0;
  for (const SnapshotMeta& meta : *metas) {
    if (meta.prefix > max_prefix) break;
    LoadedSnapshot candidate;
    const Status status = Load(meta, &candidate);
    if (status.ok()) {
      out.push_back(std::move(candidate));
      continue;
    }
    // Unavailable is an env/IO failure worth surfacing; InvalidArgument
    // is a corrupt file worth skipping.
    if (status.code() == StatusCode::kUnavailable) return status;
    ++*corrupt_skipped;
    TINPROV_COUNTER_ADD("storage.snapshot_corrupt", 1);
  }
  return out;
}

Status SnapshotStore::Sweep(uint64_t max_prefix) {
  auto names = env_->ListDir(dir_);
  if (!names.ok()) return names.status();
  for (const std::string& name : *names) {
    uint64_t prefix = 0;
    if (name.rfind(kTempPrefix, 0) == 0 ||
        (ParseSnapshotFileName(name, &prefix) && prefix > max_prefix)) {
      const Status status = env_->DeleteFile(JoinPath(dir_, name));
      if (!status.ok() && status.code() != StatusCode::kNotFound) {
        return status;
      }
    }
  }
  return Status::Ok();
}

}  // namespace tinprov::storage
