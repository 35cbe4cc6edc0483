// Binary serialisation primitives used by the record store, the delta log,
// and the version store. Little-endian, length-prefixed, no alignment
// requirements. Fixed-width fields sit beside LEB128 varints (7 value bits
// per byte, low group first, high bit = "more follows"), which the
// instance record format uses for its ids and counts.

#ifndef CACTIS_COMMON_SERIAL_H_
#define CACTIS_COMMON_SERIAL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/value.h"

namespace cactis {

/// Appends fixed-width and length-prefixed fields to a byte buffer.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }

  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }

  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }

  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }

  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  /// Unsigned LEB128: 1 byte below 128, at most 10 for any uint64_t.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<char>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<char>(v));
  }

  /// Zigzag-mapped varint, so small negative numbers stay short too.
  void PutZigzag(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }

  /// 32-bit length prefix followed by the bytes.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void PutRaw(const void* p, size_t n) {
    const char* c = static_cast<const char*>(p);
    buf_.append(c, n);
  }

  std::string buf_;
};

/// Reads fields written by BinaryWriter; every getter checks bounds and
/// returns IoError on truncation, so corrupt blocks fail loudly.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8() {
    uint8_t v = 0;
    CACTIS_RETURN_IF_ERROR(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<uint32_t> GetU32() {
    uint32_t v = 0;
    CACTIS_RETURN_IF_ERROR(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<uint64_t> GetU64() {
    uint64_t v = 0;
    CACTIS_RETURN_IF_ERROR(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<int64_t> GetI64() {
    int64_t v = 0;
    CACTIS_RETURN_IF_ERROR(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<double> GetDouble() {
    double v = 0;
    CACTIS_RETURN_IF_ERROR(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<bool> GetBool() {
    uint8_t v = 0;
    CACTIS_RETURN_IF_ERROR(GetRaw(&v, sizeof(v)));
    return v != 0;
  }
  /// Decodes a PutVarint field. A varint cut off by the end of the data,
  /// longer than 10 bytes, or carrying bits past 64 is kIoError.
  Result<uint64_t> GetVarint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= data_.size()) {
        return Status::IoError("truncated varint in serialized data");
      }
      const uint64_t byte = static_cast<unsigned char>(data_[pos_++]);
      if (shift == 63 && byte > 1) {
        return Status::IoError("overlong varint in serialized data");
      }
      v |= (byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    return Status::IoError("overlong varint in serialized data");
  }

  Result<int64_t> GetZigzag() {
    CACTIS_ASSIGN_OR_RETURN(uint64_t u, GetVarint());
    return static_cast<int64_t>((u >> 1) ^ (0 - (u & 1)));
  }

  /// A varint element count, rejected when it exceeds the bytes left
  /// (every element takes at least one), so corrupt counts cannot drive
  /// huge allocations.
  Result<uint64_t> GetCount() {
    CACTIS_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
    if (n > remaining()) {
      return Status::IoError("element count exceeds serialized data");
    }
    return n;
  }

  Result<std::string> GetString() {
    CACTIS_ASSIGN_OR_RETURN(uint32_t len, GetU32());
    if (pos_ + len > data_.size()) {
      return Status::IoError("truncated string in serialized data");
    }
    std::string s(data_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status GetRaw(void* p, size_t n) {
    if (pos_ + n > data_.size()) {
      return Status::IoError("truncated field in serialized data");
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

/// Serialises Values (all eight runtime types, recursively).
class ValueCodec {
 public:
  static void Encode(const Value& v, BinaryWriter* w);
  static Result<Value> Decode(BinaryReader* r);
};

}  // namespace cactis

#endif  // CACTIS_COMMON_SERIAL_H_
