#include "core/object_cache.h"

#include <cassert>

namespace cactis::core {

ObjectCache::Slot& ObjectCache::SlotFor(InstanceId id) {
  if (id.value >= slots_.size()) slots_.resize(id.value + 1);
  return slots_[id.value];
}

const Instance* ObjectCache::CachedCopy(InstanceId id) const {
  const Slot* slot = SlotOf(id);
  if (slot == nullptr || slot->inst == nullptr || !store_->Contains(id)) {
    return nullptr;
  }
  return slot->inst.get();
}

Result<ObjectCache::Slot*> ObjectCache::Touch(InstanceId id) {
  ++generation_;  // Touch below can fault; prior handles go stale.
  // This may evict another block (dropping its cached instances) but
  // guarantees our block is resident afterwards. It also validates the
  // id: only a stored record gets a slot.
  CACTIS_RETURN_IF_ERROR(store_->Touch(id));
  return &SlotFor(id);
}

Status ObjectCache::Decode(InstanceId id, Slot* slot) {
  CACTIS_ASSIGN_OR_RETURN(std::string payload, store_->Get(id));
  CACTIS_ASSIGN_OR_RETURN(Instance inst,
                          Instance::Deserialize(payload, *catalog_));
  slot->cls = inst.class_id();
  slot->inst = std::make_unique<Instance>(std::move(inst));
  slot->inst->set_cache_epoch(generation_);
  return Status::OK();
}

Result<Instance*> ObjectCache::Fetch(InstanceId id, bool count_access) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  CACTIS_ASSIGN_OR_RETURN(Slot * slot, Touch(id));
  if (slot->inst != nullptr) {
    slot->inst->set_cache_epoch(generation_);
  } else {
    CACTIS_RETURN_IF_ERROR(Decode(id, slot));
  }
  if (count_access) ++slot->accesses;
  return slot->inst.get();
}

Result<ClassId> ObjectCache::ClassOf(InstanceId id) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  CACTIS_ASSIGN_OR_RETURN(Slot * slot, Touch(id));
  // A record stored behind the cache's back has no class yet.
  if (!slot->cls.valid()) CACTIS_RETURN_IF_ERROR(Decode(id, slot));
  return slot->cls;
}

Status ObjectCache::WriteThrough(const Instance& inst) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  // Writing through a stale cached copy means the caller held the
  // pointer across a faulting operation — exactly the bug the pointer
  // discipline forbids. (An uncached `inst`, e.g. a caller-owned copy
  // being flushed, is exempt: its lifetime is the caller's business.)
  assert(CachedCopy(inst.id()) != &inst || IsFresh(&inst));
  ++generation_;  // Put below can fault; prior handles go stale.
  std::string payload = inst.Serialize();
  InstanceId id = inst.id();
  // NOTE: `inst` may be *the cached copy*. Put only ever drops the
  // copies of records listed in an evicted block image, and this record
  // is being written (it is in no image mid-move, and its block is
  // resident otherwise), but we still do not touch `inst` after Put.
  CACTIS_RETURN_IF_ERROR(store_->Put(id, std::move(payload)));
  if (Slot* slot = SlotOf(id); slot != nullptr && slot->inst != nullptr) {
    slot->inst->set_cache_epoch(generation_);
  }
  return Status::OK();
}

Status ObjectCache::Insert(Instance inst) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  ++generation_;  // Put below can fault; prior handles go stale.
  InstanceId id = inst.id();
  std::string payload = inst.Serialize();
  auto owned = std::make_unique<Instance>(std::move(inst));
  owned->set_cache_epoch(generation_);
  CACTIS_RETURN_IF_ERROR(store_->Put(id, std::move(payload)));
  // Put may have evicted blocks but cannot have evicted this instance's
  // (it was just fetched by Put). Cache the decoded copy.
  Slot& slot = SlotFor(id);
  slot.cls = owned->class_id();
  slot.inst = std::move(owned);
  return Status::OK();
}

const Instance* ObjectCache::PeekCached(InstanceId id) const {
  CACTIS_SHARED_GUARD(serial_guard_);
  return CachedCopy(id);
}

void ObjectCache::NoteSharedTouch(InstanceId id) {
  TouchShard& shard =
      touch_shards_[std::hash<InstanceId>{}(id) % kTouchShards];
  std::lock_guard<std::mutex> lk(shard.mu);
  if (shard.touches.size() < kTouchShardCapacity) shard.touches.push_back(id);
}

void ObjectCache::DrainTouches() {
  CACTIS_SERIAL_GUARD(serial_guard_);
  for (TouchShard& shard : touch_shards_) {
    std::lock_guard<std::mutex> lk(shard.mu);
    for (InstanceId id : shard.touches) {
      Slot* slot = SlotOf(id);
      if (slot != nullptr && store_->Contains(id)) ++slot->accesses;
    }
    shard.touches.clear();
  }
}

Status ObjectCache::Remove(InstanceId id) {
  CACTIS_SERIAL_GUARD(serial_guard_);
  ++generation_;  // Delete below can fault; prior handles go stale.
  if (Slot* slot = SlotOf(id); slot != nullptr) *slot = Slot();
  return store_->Delete(id);
}

void ObjectCache::OnBlockEvicted(BlockId /*id*/,
                                 const storage::BlockImage& image) {
  // Covers both pool evictions (mid-faulting-operation) and discards of
  // freed/relocated blocks arriving from record-store maintenance: any
  // outstanding handle may now dangle, so all of them go stale.
  ++generation_;
  for (const auto& [id, payload] : image.records()) {
    (void)payload;
    if (Slot* slot = SlotOf(id); slot != nullptr) slot->inst.reset();
  }
}

}  // namespace cactis::core
