// BlockImage: the decoded, in-memory form of one disk block.
//
// On disk a block is a flat byte string (see codec in block_image.cc); in
// the buffer pool it is a BlockImage: a small dictionary from instance id
// to that instance's serialized record. Space accounting uses the encoded
// size so a BlockImage never encodes to more than the disk block size.
//
// The dictionary is an array of (id, record) pairs sorted by id: a block
// holds tens of records, and every write-through looks one up, so a
// binary search over contiguous entries beats chasing tree nodes.

#ifndef CACTIS_STORAGE_BLOCK_IMAGE_H_
#define CACTIS_STORAGE_BLOCK_IMAGE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"

namespace cactis::storage {

/// Per-record space overhead in the encoded block: 8-byte instance id plus
/// a 4-byte length prefix.
inline constexpr size_t kRecordOverheadBytes = 12;
/// Per-block header: 4-byte record count.
inline constexpr size_t kBlockHeaderBytes = 4;

class BlockImage {
 public:
  using Record = std::pair<InstanceId, std::string>;

  /// Bytes the encoded form of this image occupies.
  size_t encoded_size() const { return kBlockHeaderBytes + bytes_used_; }

  /// Whether a payload of `payload_size` bytes (replacing any existing
  /// record for `id`) would fit within `capacity` bytes.
  bool Fits(InstanceId id, size_t payload_size, size_t capacity) const;

  /// Inserts or replaces the record for `id`.
  void Put(InstanceId id, std::string payload);

  /// Fits() and Put() with a single lookup: stores `*payload` as the
  /// record for `id` (taking it) when the result fits within `capacity`;
  /// otherwise changes nothing, leaves `*payload` intact and returns
  /// false.
  bool PutIfFits(InstanceId id, std::string* payload, size_t capacity);

  /// Returns the record payload, or NotFound.
  Result<std::string> Get(InstanceId id) const;

  bool Contains(InstanceId id) const { return Find(id) != records_.end(); }

  /// Removes the record; NotFound if absent.
  Status Erase(InstanceId id);

  size_t record_count() const { return records_.size(); }
  /// The records in id order (the encoded order).
  const std::vector<Record>& records() const { return records_; }

  /// Flat byte encoding / decoding.
  std::string Encode() const;
  static Result<BlockImage> Decode(const std::string& bytes);

 private:
  /// First record with an id not below `id` (its slot if present).
  std::vector<Record>::iterator LowerBound(InstanceId id);
  std::vector<Record>::const_iterator LowerBound(InstanceId id) const;
  /// The record for `id`, or end().
  std::vector<Record>::const_iterator Find(InstanceId id) const;

  std::vector<Record> records_;  // sorted by id, ids unique
  size_t bytes_used_ = 0;  // sum of payload sizes + per-record overhead
};

}  // namespace cactis::storage

#endif  // CACTIS_STORAGE_BLOCK_IMAGE_H_
