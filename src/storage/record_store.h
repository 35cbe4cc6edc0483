// RecordStore: maps instances to disk blocks.
//
// The record store owns the placement directory (instance -> block), the
// first-fit placement of new records, growth-driven relocation, and the
// bulk relocation API used by the clustering reorganizer (paper 2.3).
// All data access goes through the buffer pool so I/O is counted.
//
// The directory is a dense table indexed by instance id: ids are
// allocated densely from 1, so a lookup is one bounds check and one
// index, never a hash. It grows only when a new record is stored (an id
// the database has just allocated or replayed); looking up an id past its
// end, however large, is a plain miss and allocates nothing.

#ifndef CACTIS_STORAGE_RECORD_STORE_H_
#define CACTIS_STORAGE_RECORD_STORE_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"

namespace cactis::storage {

class RecordStore {
 public:
  RecordStore(SimulatedDisk* disk, BufferPool* pool)
      : disk_(disk), pool_(pool) {}

  /// Inserts or updates the record for `id`. New records go to the current
  /// fill block (first fit); an update that no longer fits its block moves
  /// the record. Payloads larger than a block are rejected.
  Status Put(InstanceId id, std::string payload);

  /// Reads the record payload (faults the block in).
  Result<std::string> Get(InstanceId id);

  /// Ensures the block holding `id` is resident, counting I/O if it was
  /// not, without copying the payload out. This is the "instance touch"
  /// used by the evaluation engine for in-memory cache hits.
  Status Touch(InstanceId id);

  /// Removes the record; frees the block when it becomes empty.
  Status Delete(InstanceId id);

  bool Contains(InstanceId id) const { return BlockSlot(id).valid(); }

  /// Placement lookup without I/O.
  Result<BlockId> BlockOf(InstanceId id) const;

  /// Whether the block holding `id` is currently in the buffer pool.
  bool IsInstanceResident(InstanceId id) const;

  /// Bulk relocation: `placement` assigns every existing instance to a
  /// cluster index; instances sharing an index are packed into the same
  /// fresh chain of blocks (a new block is started when one fills). All
  /// previously used blocks are freed. Used by cluster::Reorganizer.
  Status ApplyPlacement(
      const std::vector<std::pair<InstanceId, int>>& placement);

  std::vector<InstanceId> AllInstances() const;
  size_t record_count() const { return record_count_; }
  /// Slots in the dense directory (white-box: an unknown id must not
  /// grow it).
  size_t directory_slots() const { return directory_.size(); }
  /// Blocks currently holding at least one record (fill-factor metric).
  size_t block_count() const { return block_population_.size(); }

 private:
  /// Writes `payload` into `block` (must fit), updating the directory.
  Status PutIntoBlock(InstanceId id, std::string payload, BlockId block);

  /// The block holding `id`, or an invalid BlockId when it has no record.
  BlockId BlockSlot(InstanceId id) const {
    return id.value < directory_.size() ? directory_[id.value] : BlockId();
  }

  SimulatedDisk* disk_;
  BufferPool* pool_;
  // Indexed by InstanceId::value; an invalid BlockId marks "no record".
  std::vector<BlockId> directory_;
  size_t record_count_ = 0;
  std::unordered_map<BlockId, size_t> block_population_;
  BlockId fill_block_;  // invalid until first Put
};

}  // namespace cactis::storage

#endif  // CACTIS_STORAGE_RECORD_STORE_H_
