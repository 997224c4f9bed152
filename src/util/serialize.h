// Flat binary serialization for tracker snapshots.
//
// A History (lazy/history.h) keeps tracker snapshots and restores the
// nearest one on every historical query, so the format optimizes for
// write/restore speed over portability: little-endian host layout,
// memcpy of trivially copyable values (padded tuple types go through
// the field-wise helpers in core/buffer_io.h instead). Snapshots live
// and die inside one process; they are not an interchange format.
#ifndef TINPROV_UTIL_SERIALIZE_H_
#define TINPROV_UTIL_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace tinprov {

/// Appends trivially copyable values to a caller-owned byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  template <typename T>
  void Append(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteWriter handles trivially copyable types only");
    const auto* bytes = reinterpret_cast<const uint8_t*>(&value);
    out_->insert(out_->end(), bytes, bytes + sizeof(T));
  }

  /// Raw span of `count` values with no length prefix — for arrays whose
  /// length is fixed by the tracker's configuration (e.g. per-vertex
  /// balances of a known vertex count).
  template <typename T>
  void AppendSpan(const T* values, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteWriter handles trivially copyable types only");
    const auto* bytes = reinterpret_cast<const uint8_t*>(values);
    out_->insert(out_->end(), bytes, bytes + count * sizeof(T));
  }

 private:
  std::vector<uint8_t>* out_;
};

/// Bounds-checked reader over a byte span produced by ByteWriter. Every
/// accessor returns InvalidArgument instead of reading past the end, so
/// truncated or mismatched snapshots fail loudly.
class ByteReader {
 public:
  /// A null `data` reads as empty whatever `size` claims, so callers
  /// handing over a buffer they never filled get InvalidArgument from
  /// the first Read instead of a null dereference.
  ByteReader(const uint8_t* data, size_t size)
      : data_(data), size_(data == nullptr ? 0 : size) {}

  size_t remaining() const { return size_ - pos_; }

  template <typename T>
  Status Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteReader handles trivially copyable types only");
    return ReadSpan(out, 1);
  }

  template <typename T>
  Status ReadSpan(T* out, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteReader handles trivially copyable types only");
    if (count > remaining() / sizeof(T)) {
      return Status::InvalidArgument(
          "snapshot truncated: need " + std::to_string(count * sizeof(T)) +
          " bytes, have " + std::to_string(remaining()));
    }
    std::memcpy(out, data_ + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return Status::Ok();
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace tinprov

#endif  // TINPROV_UTIL_SERIALIZE_H_
