#include "storage/block_image.h"

#include <algorithm>

#include "common/serial.h"

namespace cactis::storage {

namespace {

bool IdBelow(const BlockImage::Record& r, InstanceId id) {
  return r.first < id;
}

}  // namespace

std::vector<BlockImage::Record>::iterator BlockImage::LowerBound(
    InstanceId id) {
  return std::lower_bound(records_.begin(), records_.end(), id, IdBelow);
}

std::vector<BlockImage::Record>::const_iterator BlockImage::LowerBound(
    InstanceId id) const {
  return std::lower_bound(records_.begin(), records_.end(), id, IdBelow);
}

std::vector<BlockImage::Record>::const_iterator BlockImage::Find(
    InstanceId id) const {
  auto it = LowerBound(id);
  return it != records_.end() && it->first == id ? it : records_.end();
}

bool BlockImage::Fits(InstanceId id, size_t payload_size,
                      size_t capacity) const {
  size_t used = bytes_used_;
  auto it = Find(id);
  if (it != records_.end()) {
    used -= it->second.size() + kRecordOverheadBytes;
  }
  return kBlockHeaderBytes + used + payload_size + kRecordOverheadBytes <=
         capacity;
}

void BlockImage::Put(InstanceId id, std::string payload) {
  auto it = LowerBound(id);
  if (it != records_.end() && it->first == id) {
    bytes_used_ -= it->second.size() + kRecordOverheadBytes;
    it->second = std::move(payload);
    bytes_used_ += it->second.size() + kRecordOverheadBytes;
    return;
  }
  bytes_used_ += payload.size() + kRecordOverheadBytes;
  records_.emplace(it, id, std::move(payload));
}

bool BlockImage::PutIfFits(InstanceId id, std::string* payload,
                           size_t capacity) {
  auto it = LowerBound(id);
  const bool present = it != records_.end() && it->first == id;
  const size_t freed = present ? it->second.size() + kRecordOverheadBytes : 0;
  const size_t needed = payload->size() + kRecordOverheadBytes;
  if (kBlockHeaderBytes + bytes_used_ - freed + needed > capacity) {
    return false;
  }
  bytes_used_ = bytes_used_ - freed + needed;
  if (present) {
    it->second = std::move(*payload);
  } else {
    records_.emplace(it, id, std::move(*payload));
  }
  return true;
}

Result<std::string> BlockImage::Get(InstanceId id) const {
  auto it = Find(id);
  if (it == records_.end()) {
    return Status::NotFound("no record for instance " +
                            std::to_string(id.value) + " in block");
  }
  return it->second;
}

Status BlockImage::Erase(InstanceId id) {
  auto it = LowerBound(id);
  if (it == records_.end() || it->first != id) {
    return Status::NotFound("no record for instance " +
                            std::to_string(id.value) + " in block");
  }
  bytes_used_ -= it->second.size() + kRecordOverheadBytes;
  records_.erase(it);
  return Status::OK();
}

std::string BlockImage::Encode() const {
  BinaryWriter w;
  w.PutU32(static_cast<uint32_t>(records_.size()));
  for (const auto& [id, payload] : records_) {
    w.PutU64(id.value);
    w.PutString(payload);
  }
  return w.Take();
}

Result<BlockImage> BlockImage::Decode(const std::string& bytes) {
  BlockImage image;
  if (bytes.empty()) return image;  // freshly allocated block
  BinaryReader r(bytes);
  CACTIS_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  for (uint32_t i = 0; i < n; ++i) {
    CACTIS_ASSIGN_OR_RETURN(uint64_t id, r.GetU64());
    CACTIS_ASSIGN_OR_RETURN(std::string payload, r.GetString());
    image.Put(InstanceId(id), std::move(payload));
  }
  return image;
}

}  // namespace cactis::storage
