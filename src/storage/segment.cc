#include "storage/segment.h"

#include <utility>

#include "obs/metrics.h"
#include "util/crc32c.h"
#include "util/serialize.h"

namespace tinprov::storage {

namespace {

void EncodeZoneMap(ByteWriter* writer, const SegmentZoneMap& map) {
  writer->Append<uint64_t>(map.num_records);
  writer->Append<uint64_t>(map.num_interactions);
  writer->Append<VertexId>(map.min_vertex);
  writer->Append<VertexId>(map.max_vertex);
  writer->Append<Timestamp>(map.min_t);
  writer->Append<Timestamp>(map.max_t);
  writer->Append<uint64_t>(map.base_prefix);
}

Status DecodeZoneMap(ByteReader* reader, SegmentZoneMap* map) {
  Status status = reader->Read(&map->num_records);
  if (!status.ok()) return status;
  status = reader->Read(&map->num_interactions);
  if (!status.ok()) return status;
  status = reader->Read(&map->min_vertex);
  if (!status.ok()) return status;
  status = reader->Read(&map->max_vertex);
  if (!status.ok()) return status;
  status = reader->Read(&map->min_t);
  if (!status.ok()) return status;
  status = reader->Read(&map->max_t);
  if (!status.ok()) return status;
  return reader->Read(&map->base_prefix);
}

}  // namespace

SegmentWriter::SegmentWriter(std::string path,
                             std::unique_ptr<WritableFile> file,
                             uint64_t base_prefix)
    : path_(std::move(path)), file_(std::move(file)) {
  zone_map_.base_prefix = base_prefix;
}

StatusOr<std::unique_ptr<SegmentWriter>> SegmentWriter::Open(
    Env* env, const std::string& path, uint64_t base_prefix) {
  auto file = env->NewWritableFile(path);
  if (!file.ok()) return file.status();
  std::unique_ptr<SegmentWriter> writer(
      new SegmentWriter(path, *std::move(file), base_prefix));
  std::vector<uint8_t> header;
  ByteWriter encoder(&header);
  encoder.Append<uint32_t>(kSegmentMagic);
  encoder.Append<uint32_t>(kFormatVersion);
  encoder.Append<uint64_t>(base_prefix);
  const Status status = writer->file_->Append(header.data(), header.size());
  if (!status.ok()) return status;
  writer->bytes_written_ = header.size();
  return writer;
}

Status SegmentWriter::AppendRecord(uint8_t type,
                                   const std::vector<uint8_t>& payload) {
  scratch_.clear();
  ByteWriter encoder(&scratch_);
  // CRC covers type + payload; the length field is implicitly protected
  // because a wrong length lands the reader on bytes that cannot
  // checksum to the stored value.
  uint32_t crc = Crc32cExtend(0, &type, 1);
  crc = Crc32cExtend(crc, payload.data(), payload.size());
  encoder.Append<uint32_t>(Crc32cMask(crc));
  encoder.Append<uint32_t>(static_cast<uint32_t>(payload.size()));
  encoder.Append<uint8_t>(type);
  scratch_.insert(scratch_.end(), payload.begin(), payload.end());
  const Status status = file_->Append(scratch_.data(), scratch_.size());
  if (!status.ok()) return status;
  bytes_written_ += scratch_.size();
  return Status::Ok();
}

Status SegmentWriter::Append(const Interaction* batch, size_t count) {
  if (sealed_) return Status::FailedPrecondition("segment already sealed");
  std::vector<uint8_t> payload;
  payload.reserve(4 + count * kInteractionWireBytes);
  ByteWriter encoder(&payload);
  encoder.Append<uint32_t>(static_cast<uint32_t>(count));
  for (size_t i = 0; i < count; ++i) {
    // Field-wise like every snapshot writer: the wire image is a pure
    // function of the logical values, never of struct padding.
    encoder.Append<VertexId>(batch[i].src);
    encoder.Append<VertexId>(batch[i].dst);
    encoder.Append<Timestamp>(batch[i].t);
    encoder.Append<double>(batch[i].quantity);
  }
  const Status status = AppendRecord(kInteractionsRecord, payload);
  if (!status.ok()) return status;
  ++zone_map_.num_records;
  for (size_t i = 0; i < count; ++i) zone_map_.Observe(batch[i]);
  TINPROV_COUNTER_ADD("storage.records_appended", 1);
  TINPROV_COUNTER_ADD("storage.interactions_appended", count);
  TINPROV_COUNTER_ADD("storage.bytes_written",
                      kRecordHeaderBytes + payload.size());
  return Status::Ok();
}

Status SegmentWriter::Sync() {
  TINPROV_SCOPED_LATENCY_NS("storage.sync_ns");
  return file_->Sync();
}

Status SegmentWriter::Seal() {
  if (sealed_) return Status::Ok();
  std::vector<uint8_t> payload;
  ByteWriter encoder(&payload);
  EncodeZoneMap(&encoder, zone_map_);
  Status status = AppendRecord(kFooterRecord, payload);
  if (!status.ok()) return status;
  status = file_->Sync();
  if (!status.ok()) return status;
  status = file_->Close();
  if (!status.ok()) return status;
  sealed_ = true;
  TINPROV_COUNTER_ADD("storage.segments_sealed", 1);
  return Status::Ok();
}

Status ReadSegment(Env* env, const std::string& path,
                   SegmentReadResult* result) {
  *result = SegmentReadResult();
  auto file = env->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  auto size = (*file)->Size();
  if (!size.ok()) return size.status();

  // Segments are rotation-bounded (a few MB), so one slurp is simpler
  // and faster than record-at-a-time positional reads.
  std::vector<uint8_t> bytes(static_cast<size_t>(*size));
  size_t read = 0;
  if (!bytes.empty()) {
    const Status status = (*file)->Read(0, bytes.size(), bytes.data(), &read);
    if (!status.ok()) return status;
    bytes.resize(read);
  }

  ByteReader reader(bytes.data(), bytes.size());
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!reader.Read(&magic).ok() || !reader.Read(&version).ok() ||
      !reader.Read(&result->base_prefix).ok()) {
    result->end = SegmentEnd::kTorn;  // not even a full header landed
    return Status::Ok();
  }
  if (magic != kSegmentMagic || version != kFormatVersion) {
    result->end = SegmentEnd::kCorrupt;
    return Status::Ok();
  }
  result->zone_map.base_prefix = result->base_prefix;
  result->valid_bytes = kSegmentHeaderBytes;

  while (reader.remaining() > 0) {
    if (reader.remaining() < kRecordHeaderBytes) {
      result->end = SegmentEnd::kTorn;
      return Status::Ok();
    }
    uint32_t masked_crc = 0;
    uint32_t payload_len = 0;
    uint8_t type = 0;
    (void)reader.Read(&masked_crc);
    (void)reader.Read(&payload_len);
    (void)reader.Read(&type);
    if (payload_len > reader.remaining()) {
      // Length runs past the file: a torn tail (or a corrupted length,
      // indistinguishable without the bytes it promises). Either way
      // the trusted prefix ends here.
      result->end = SegmentEnd::kTorn;
      return Status::Ok();
    }
    std::vector<uint8_t> payload(payload_len);
    (void)reader.ReadSpan(payload.data(), payload.size());
    uint32_t crc = Crc32cExtend(0, &type, 1);
    crc = Crc32cExtend(crc, payload.data(), payload.size());
    if (Crc32cMask(crc) != masked_crc) {
      result->end = SegmentEnd::kCorrupt;
      return Status::Ok();
    }

    ByteReader body(payload.data(), payload.size());
    if (type == kInteractionsRecord) {
      uint32_t count = 0;
      if (!body.Read(&count).ok() ||
          count > body.remaining() / kInteractionWireBytes) {
        result->end = SegmentEnd::kCorrupt;  // checksummed but malformed
        return Status::Ok();
      }
      for (uint32_t i = 0; i < count; ++i) {
        Interaction interaction;
        (void)body.Read(&interaction.src);
        (void)body.Read(&interaction.dst);
        (void)body.Read(&interaction.t);
        (void)body.Read(&interaction.quantity);
        result->interactions.push_back(interaction);
        result->zone_map.Observe(interaction);
      }
      ++result->zone_map.num_records;
      result->valid_bytes += kRecordHeaderBytes + payload.size();
    } else if (type == kFooterRecord) {
      SegmentZoneMap footer;
      if (!DecodeZoneMap(&body, &footer).ok() || body.remaining() != 0 ||
          footer.base_prefix != result->base_prefix ||
          footer.num_interactions != result->interactions.size()) {
        result->end = SegmentEnd::kCorrupt;
        return Status::Ok();
      }
      result->sealed = true;
      result->zone_map = footer;
      result->valid_bytes += kRecordHeaderBytes + payload.size();
      // Trailing bytes after a footer mean the file was appended to
      // after sealing — nothing a correct writer produces.
      if (reader.remaining() > 0) result->end = SegmentEnd::kCorrupt;
      return Status::Ok();
    } else {
      result->end = SegmentEnd::kCorrupt;  // unknown record type
      return Status::Ok();
    }
  }
  return Status::Ok();
}

StatusOr<bool> ReadSegmentBase(Env* env, const std::string& path,
                               uint64_t* base_prefix) {
  auto file = env->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  uint8_t header[kSegmentHeaderBytes];
  size_t read = 0;
  const Status status = (*file)->Read(0, sizeof(header), header, &read);
  if (!status.ok()) return status;
  ByteReader reader(header, read);
  uint32_t magic = 0;
  uint32_t version = 0;
  return reader.Read(&magic).ok() && reader.Read(&version).ok() &&
         reader.Read(base_prefix).ok() && magic == kSegmentMagic &&
         version == kFormatVersion;
}

}  // namespace tinprov::storage
