// Regression tests for block-residency correctness:
//  * Discard() notifies residency listeners (the object cache depends on
//    it to drop decoded copies of records on freed/relocated blocks).
//  * Disk geometry too small for the checksum frame is rejected up front
//    instead of silently producing zero-capacity blocks.
//  * The ObjectCache pointer discipline (generation counter / IsFresh) is
//    enforced across every block-faulting operation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/database.h"
#include "core/object_cache.h"
#include "schema/catalog.h"
#include "schema/schema_loader.h"
#include "storage/buffer_pool.h"
#include "storage/checksum.h"
#include "storage/record_store.h"
#include "storage/simulated_disk.h"

namespace cactis {
namespace {

constexpr const char* kCellSchema = R"(
  object class cell is
    attributes
      base : int;
      acc : int;
    rules
      acc = base + 1;
  end object;
)";

/// Records the exact order of residency callbacks.
class RecordingListener : public storage::ResidencyListener {
 public:
  void OnBlockLoaded(BlockId id) override {
    events.push_back("load " + std::to_string(id.value));
  }
  void OnBlockEvicted(BlockId id,
                      const storage::BlockImage& /*image*/) override {
    events.push_back("evict " + std::to_string(id.value));
  }
  std::vector<std::string> events;
};

void WriteEmptyImage(storage::SimulatedDisk* disk, BlockId id) {
  ASSERT_TRUE(
      disk->Write(id, storage::WrapWithChecksum(storage::BlockImage().Encode()))
          .ok());
}

TEST(ResidencyListenerTest, LoadEvictDiscardOrdering) {
  storage::SimulatedDisk disk(64);
  storage::BufferPool pool(&disk, /*capacity=*/1);
  RecordingListener listener;
  pool.AddListener(&listener);

  BlockId a = disk.Allocate();
  BlockId b = disk.Allocate();
  WriteEmptyImage(&disk, a);
  WriteEmptyImage(&disk, b);

  ASSERT_TRUE(pool.Fetch(a).ok());
  ASSERT_TRUE(pool.Fetch(b).ok());  // capacity 1: evicts a, loads b
  pool.Discard(b);

  std::vector<std::string> expected = {
      "load " + std::to_string(a.value),
      "evict " + std::to_string(a.value),
      "load " + std::to_string(b.value),
      "evict " + std::to_string(b.value),  // via Discard
  };
  EXPECT_EQ(listener.events, expected);
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_EQ(pool.stats().discards, 1u);
  EXPECT_FALSE(pool.IsResident(b));
}

TEST(ResidencyListenerTest, DiscardOfNonResidentBlockIsSilent) {
  storage::SimulatedDisk disk(64);
  storage::BufferPool pool(&disk, 2);
  RecordingListener listener;
  pool.AddListener(&listener);
  pool.Discard(disk.Allocate());  // never fetched
  EXPECT_TRUE(listener.events.empty());
  EXPECT_EQ(pool.stats().discards, 0u);
}

// The bug this guards against: RecordStore::Delete frees an emptied block
// via BufferPool::Discard; if Discard does not notify listeners, the
// object cache keeps decoded Instance copies for records that no longer
// exist, and later fetches serve stale pointers.
TEST(ResidencyListenerTest, FreeingABlockDropsCachedInstances) {
  storage::SimulatedDisk disk(512);
  storage::BufferPool pool(&disk, 8);
  storage::RecordStore store(&disk, &pool);
  schema::Catalog catalog;
  ASSERT_TRUE(schema::LoadSchema(&catalog, kCellSchema).ok());
  const schema::ObjectClass* cls = catalog.FindClass("cell");
  ASSERT_NE(cls, nullptr);

  core::ObjectCache cache(&catalog, &store);
  pool.AddListener(&cache);

  InstanceId i1(1), i2(2);
  ASSERT_TRUE(cache.Insert(core::Instance::Create(i1, *cls)).ok());
  ASSERT_TRUE(cache.Insert(core::Instance::Create(i2, *cls)).ok());
  auto b1 = store.BlockOf(i1);
  auto b2 = store.BlockOf(i2);
  ASSERT_TRUE(b1.ok() && b2.ok());
  ASSERT_EQ(*b1, *b2) << "test premise: both records share a block";
  ASSERT_TRUE(cache.IsCached(i1));
  ASSERT_TRUE(cache.IsCached(i2));

  // Delete both records through the store (not the cache): the block
  // empties, the store frees it, and the resulting Discard must evict
  // both decoded copies from the cache.
  ASSERT_TRUE(store.Delete(i1).ok());
  ASSERT_TRUE(store.Delete(i2).ok());
  EXPECT_FALSE(disk.IsAllocated(*b1));
  EXPECT_FALSE(cache.IsCached(i1));
  EXPECT_FALSE(cache.IsCached(i2));
}

TEST(GeometryTest, BlockSizeInsideChecksumFrameIsRejected) {
  storage::SimulatedDisk disk(storage::kChecksumFrameBytes);
  storage::BufferPool pool(&disk, 4);
  EXPECT_FALSE(pool.status().ok());
  EXPECT_EQ(pool.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.usable_block_bytes(), 0u);

  BlockId b = disk.Allocate();
  auto fetched = pool.Fetch(b);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kInvalidArgument);

  // The record store surfaces the same error instead of a misleading
  // "payload too large" from its zero-capacity size check.
  storage::RecordStore store(&disk, &pool);
  EXPECT_EQ(store.Put(InstanceId(1), "x").code(),
            StatusCode::kInvalidArgument);
}

TEST(GeometryTest, DatabaseSurfacesBadBlockSize) {
  core::DatabaseOptions opts;
  opts.block_size = storage::kChecksumFrameBytes;
  core::Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kCellSchema).ok());
  auto id = db.Create("cell");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
}

TEST(GeometryTest, MinimalViableBlockSizeWorks) {
  core::DatabaseOptions opts;
  opts.block_size = 256;  // small but > the checksum frame
  core::Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kCellSchema).ok());
  auto id = db.Create("cell");
  ASSERT_TRUE(id.ok()) << id.status().message();
  EXPECT_TRUE(db.Set(*id, "base", Value::Int(2)).ok());
}

TEST(PointerDisciplineTest, BlockFaultingOpsInvalidateHandles) {
  storage::SimulatedDisk disk(512);
  storage::BufferPool pool(&disk, 8);
  storage::RecordStore store(&disk, &pool);
  schema::Catalog catalog;
  ASSERT_TRUE(schema::LoadSchema(&catalog, kCellSchema).ok());
  const schema::ObjectClass* cls = catalog.FindClass("cell");
  ASSERT_NE(cls, nullptr);

  core::ObjectCache cache(&catalog, &store);
  pool.AddListener(&cache);
  ASSERT_TRUE(cache.Insert(core::Instance::Create(InstanceId(1), *cls)).ok());
  ASSERT_TRUE(cache.Insert(core::Instance::Create(InstanceId(2), *cls)).ok());

  auto h1 = cache.Fetch(InstanceId(1));
  ASSERT_TRUE(h1.ok());
  EXPECT_TRUE(cache.IsFresh(*h1));

  // Any subsequent cache operation goes through code that may fault a
  // block, so it stales every outstanding handle — even a cache hit.
  auto h2 = cache.Fetch(InstanceId(2));
  ASSERT_TRUE(h2.ok());
  EXPECT_FALSE(cache.IsFresh(*h1));
  EXPECT_TRUE(cache.IsFresh(*h2));

  uint64_t gen = cache.generation();
  core::Instance copy = **h2;  // detached copy: mutate-then-write pattern
  ASSERT_TRUE(cache.WriteThrough(copy).ok());
  EXPECT_GT(cache.generation(), gen);
  // The written-through instance's surviving cached copy is re-stamped,
  // so the writer may keep using its own handle; every *other* handle
  // went stale.
  EXPECT_TRUE(cache.IsFresh(*h2));
  EXPECT_FALSE(cache.IsFresh(*h1));

  // A re-fetch hands back a fresh handle for the same instance.
  auto h1again = cache.Fetch(InstanceId(1));
  ASSERT_TRUE(h1again.ok());
  EXPECT_TRUE(cache.IsFresh(*h1again));

  EXPECT_FALSE(cache.IsFresh(nullptr));
}

TEST(PointerDisciplineTest, BlockEvictionStalesHandlesOnOtherBlocks) {
  storage::SimulatedDisk disk(256);
  storage::BufferPool pool(&disk, /*capacity=*/8);
  storage::RecordStore store(&disk, &pool);
  schema::Catalog catalog;
  ASSERT_TRUE(schema::LoadSchema(&catalog, kCellSchema).ok());
  const schema::ObjectClass* cls = catalog.FindClass("cell");
  ASSERT_NE(cls, nullptr);

  core::ObjectCache cache(&catalog, &store);
  pool.AddListener(&cache);

  // Fill blocks until two instances land on different blocks.
  InstanceId first(1);
  ASSERT_TRUE(cache.Insert(core::Instance::Create(first, *cls)).ok());
  InstanceId far;
  for (uint64_t i = 2; i < 64; ++i) {
    InstanceId id(i);
    ASSERT_TRUE(cache.Insert(core::Instance::Create(id, *cls)).ok());
    if (*store.BlockOf(id) != *store.BlockOf(first)) {
      far = id;
      break;
    }
  }
  ASSERT_TRUE(far.valid()) << "instances never spilled to a second block";

  auto h = cache.Fetch(first);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(cache.IsFresh(*h));
  // A block leaving memory — here via Discard of the *other* block —
  // stales every outstanding handle (the eviction may have happened
  // mid-faulting-operation) and drops the evicted block's copies, while
  // surviving blocks keep theirs cached.
  pool.Discard(*store.BlockOf(far));
  EXPECT_FALSE(cache.IsFresh(*h));
  EXPECT_FALSE(cache.IsCached(far));
  EXPECT_TRUE(cache.IsCached(first));
}

// The cache learns which decoded copies to drop from the departing block
// image itself. A record that outgrows its block moves to another, and
// its copy must follow it: kept when the old block leaves, dropped when
// the new one does.
TEST(ResidencyListenerTest, MovedRecordsCopyLeavesWithItsNewBlock) {
  storage::SimulatedDisk disk(256);
  storage::BufferPool pool(&disk, 8);
  storage::RecordStore store(&disk, &pool);
  schema::Catalog catalog;
  ASSERT_TRUE(schema::LoadSchema(&catalog, kCellSchema).ok());
  const schema::ObjectClass* cls = catalog.FindClass("cell");
  ASSERT_NE(cls, nullptr);
  core::ObjectCache cache(&catalog, &store);
  pool.AddListener(&cache);

  InstanceId mover(1), stayer(2);
  ASSERT_TRUE(cache.Insert(core::Instance::Create(mover, *cls)).ok());
  ASSERT_TRUE(cache.Insert(core::Instance::Create(stayer, *cls)).ok());
  const BlockId old_block = *store.BlockOf(mover);
  ASSERT_EQ(*store.BlockOf(stayer), old_block);

  // Grow the record past what its block has left (the cache stores any
  // value; only the size matters here).
  auto inst = cache.Fetch(mover);
  ASSERT_TRUE(inst.ok());
  (*inst)->attrs()[0].value = Value::String(std::string(220, 'x'));
  ASSERT_TRUE(cache.WriteThrough(**inst).ok());
  const BlockId new_block = *store.BlockOf(mover);
  ASSERT_NE(new_block, old_block) << "test premise: the record moved";
  EXPECT_TRUE(cache.IsCached(mover));

  ASSERT_TRUE(pool.FlushAll().ok());
  pool.Discard(old_block);
  EXPECT_TRUE(cache.IsCached(mover));
  EXPECT_FALSE(cache.IsCached(stayer));
  pool.Discard(new_block);
  EXPECT_FALSE(cache.IsCached(mover));

  // Both decode again from the flushed blocks.
  auto back = cache.Fetch(mover);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ((*back)->attrs()[0].value, Value::String(std::string(220, 'x')));
  EXPECT_TRUE(cache.Fetch(stayer).ok());
}

}  // namespace
}  // namespace cactis
