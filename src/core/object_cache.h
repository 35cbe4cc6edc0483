// ObjectCache: decoded instances layered over the record store.
//
// The cache mirrors buffer-pool residency: an instance may be cached only
// while its block is resident; eviction of the block drops the decoded
// copy. Writes are write-through — every mutation serialises the instance
// back into the record store immediately — so a dropped copy is never
// newer than its record.
//
// STORAGE: one slot per instance in a dense table indexed by instance id
// (ids are allocated densely). A slot holds the decoded copy (null when
// not cached), the instance's class (kept across eviction, so a class
// lookup needs no decode) and its access count (the clustering input).
// The block an instance lives in is not copied here: the record store's
// directory is the only placement map, and on eviction the cache drops
// exactly the records the departing block image lists. The table grows
// only once the record store has confirmed the id; a lookup past its
// end is a miss.
//
// POINTER DISCIPLINE: a Fetch()ed Instance* is valid only until the next
// operation that can fault a block in (another Fetch, a Write, any
// record-store access). Callers copy what they need and re-fetch.
//
// The discipline is enforced mechanically: every cache operation that can
// fault a block bumps `generation_`, each handed-out handle records the
// generation it was issued at, and IsFresh() tells whether a handle is
// still from the current generation. Debug builds assert freshness when a
// cached copy is written through; tests assert it directly.
//
// THREADING: the cache is single-threaded — callers (Database, and
// through it the server executor) serialise every operation behind the
// statement lock, and a ThreadSerialGuard aborts loudly if two threads
// ever race into one. The one exception is NoteSharedTouch: lock-free
// snapshot reads never touch the cache itself, but they record deferred
// touches into small lock-striped buffers that the reorganizer drains
// into the access counts, so hot-set clustering still sees read traffic.

#ifndef CACTIS_CORE_OBJECT_CACHE_H_
#define CACTIS_CORE_OBJECT_CACHE_H_

#include <memory>
#include <mutex>
#include <vector>

#include "common/thread_guard.h"
#include "core/instance.h"
#include "schema/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/record_store.h"

namespace cactis::core {

class ObjectCache : public storage::ResidencyListener {
 public:
  ObjectCache(const schema::Catalog* catalog, storage::RecordStore* store)
      : catalog_(catalog), store_(store) {}

  /// Returns the decoded instance, faulting its block in if needed.
  /// `count_access` adds one to the instance's access count.
  Result<Instance*> Fetch(InstanceId id, bool count_access = false);

  /// The class of `id`, touching its block exactly as Fetch does (same
  /// I/O and LRU effect) but without decoding the record when the class
  /// is already known.
  Result<ClassId> ClassOf(InstanceId id);

  /// Serialises `inst` and writes it through to the record store (the
  /// record may move blocks if it grew). `inst` may be the cached copy.
  Status WriteThrough(const Instance& inst);

  /// Registers a brand-new instance: stores its record and caches it.
  Status Insert(Instance inst);

  /// Removes the instance from cache and store.
  Status Remove(InstanceId id);

  /// Records a lock-free (snapshot) read for later clustering
  /// accounting. Safe from any thread, with or without the statement
  /// lock. Lock-striped; drops the touch if its shard is full.
  void NoteSharedTouch(InstanceId id);

  /// Drains all deferred touches, adding one to the access count of each
  /// touched instance that still exists. Statement lock required (the
  /// reorganizer).
  void DrainTouches();

  /// Accesses counted by Fetch and DrainTouches since the instance was
  /// created (0 for an unknown id).
  uint64_t access_count(InstanceId id) const {
    const Slot* slot = SlotOf(id);
    return slot == nullptr ? 0 : slot->accesses;
  }

  bool IsCached(InstanceId id) const { return CachedCopy(id) != nullptr; }

  /// Slots in the dense instance table (white-box: an unknown id must
  /// not grow it).
  size_t table_slots() const { return slots_.size(); }

  /// Current cache generation; bumped by every operation that can fault
  /// a block (Fetch, WriteThrough, Insert, Remove, block eviction).
  uint64_t generation() const { return generation_; }

  /// True while `inst` is a handle issued at the current generation —
  /// i.e. no block-faulting operation has happened since it was fetched,
  /// so the pointer is still safe to dereference.
  bool IsFresh(const Instance* inst) const {
    return inst != nullptr && inst->cache_epoch() == generation_;
  }

  // storage::ResidencyListener:
  void OnBlockLoaded(BlockId /*id*/) override {}
  void OnBlockEvicted(BlockId id, const storage::BlockImage& image) override;

 private:
  struct Slot {
    std::unique_ptr<Instance> inst;  // decoded copy; null when not cached
    ClassId cls;                     // invalid until first stored/decoded
    uint64_t accesses = 0;
  };

  const Slot* SlotOf(InstanceId id) const {
    return id.value < slots_.size() ? &slots_[id.value] : nullptr;
  }
  Slot* SlotOf(InstanceId id) {
    return id.value < slots_.size() ? &slots_[id.value] : nullptr;
  }
  /// The slot of an id the record store holds, growing the table to it.
  Slot& SlotFor(InstanceId id);
  /// The decoded copy, if cached and its record still exists (a record
  /// deleted behind the cache's back is never served).
  const Instance* CachedCopy(InstanceId id) const;
  /// Generation bump + block touch + slot, shared by Fetch and ClassOf.
  Result<Slot*> Touch(InstanceId id);
  /// Decodes `id`'s record into `slot`.
  Status Decode(InstanceId id, Slot* slot);

  static constexpr size_t kTouchShards = 8;
  static constexpr size_t kTouchShardCapacity = 4096;

  struct TouchShard {
    std::mutex mu;
    std::vector<InstanceId> touches;
  };

  const schema::Catalog* catalog_;
  storage::RecordStore* store_;
  mutable ThreadSerialGuard serial_guard_;
  uint64_t generation_ = 0;
  // Indexed by InstanceId::value.
  std::vector<Slot> slots_;
  mutable TouchShard touch_shards_[kTouchShards];
};

}  // namespace cactis::core

#endif  // CACTIS_CORE_OBJECT_CACHE_H_
