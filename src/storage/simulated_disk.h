// SimulatedDisk: the instrumented block device under Cactis.
//
// Paper substitution (see DESIGN.md): the original system ran on a physical
// Sun workstation disk; every technique in section 2.3 of the paper is
// about minimising the *number of block accesses*, so we reproduce the
// evaluation on a simulated block store that counts reads and writes.
// The counters are the measured quantity in experiments E4-E6.
//
// The disk can fail. An installed FaultPolicy may make any read or write
// suffer a transient error, a fail-stop crash, a torn (partial) write, or
// a silent bit flip (see fault_policy.h). After a crash every operation
// returns kIoError, but the platter — whatever was durably written before
// the crash — survives and can be inspected offline via PeekRaw(), which
// is how recovery reads the write-ahead log out of a crashed database.

#ifndef CACTIS_STORAGE_SIMULATED_DISK_H_
#define CACTIS_STORAGE_SIMULATED_DISK_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/fault_policy.h"

namespace cactis::storage {

/// Cumulative I/O counters; snapshot and subtract to measure a workload.
/// The fault counters record *injected* events, not organic failures.
/// Relaxed atomics: the WAL flush leader does I/O outside the statement
/// lock while the metrics sampler reads these.
struct DiskStats {
  obs::RelaxedCounter reads;
  obs::RelaxedCounter writes;
  obs::RelaxedCounter allocations;
  obs::RelaxedCounter frees;
  obs::RelaxedCounter transient_errors;  ///< injected retriable I/O errors
  obs::RelaxedCounter torn_writes;       ///< injected partial writes
  obs::RelaxedCounter bit_flips;         ///< injected silent corruptions
  obs::RelaxedCounter crashes;  ///< injected fail-stop crashes (0 or 1)

  /// Saturating subtraction: counters may have been reset between the two
  /// snapshots, so each field clamps at zero instead of wrapping.
  DiskStats operator-(const DiskStats& other) const {
    auto sat = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
    DiskStats d;
    d.reads = sat(reads, other.reads);
    d.writes = sat(writes, other.writes);
    d.allocations = sat(allocations, other.allocations);
    d.frees = sat(frees, other.frees);
    d.transient_errors = sat(transient_errors, other.transient_errors);
    d.torn_writes = sat(torn_writes, other.torn_writes);
    d.bit_flips = sat(bit_flips, other.bit_flips);
    d.crashes = sat(crashes, other.crashes);
    return d;
  }

  void ExportTo(obs::MetricsGroup* g) const {
    g->AddCounter("reads", reads);
    g->AddCounter("writes", writes);
    g->AddCounter("allocations", allocations);
    g->AddCounter("frees", frees);
    g->AddCounter("transient_errors", transient_errors);
    g->AddCounter("torn_writes", torn_writes);
    g->AddCounter("bit_flips", bit_flips);
    g->AddCounter("crashes", crashes);
  }
};

/// A block-addressed in-memory store standing in for a disk. Blocks have a
/// fixed capacity in bytes; the record store enforces it. Reading or
/// writing a block bumps the corresponding counter.
///
/// Block operations are internally serialized by a mutex: a WAL group-
/// commit flush leader writes log blocks while a statement may
/// concurrently do buffer-pool I/O, and the two must not corrupt the
/// directory. stats() is safe to read at any time; write_attempts() and
/// read_attempts() are unlocked and only meaningful when the disk is
/// quiescent (the crash harness reads them between operations).
class SimulatedDisk {
 public:
  /// `block_size` is the usable bytes per block.
  explicit SimulatedDisk(size_t block_size = 4096)
      : block_size_(block_size) {}

  size_t block_size() const { return block_size_; }

  /// Allocates a fresh (or recycled) block; its content starts empty.
  /// Returns the invalid id on a crashed disk.
  BlockId Allocate();

  /// Returns the block to the free list. Further access is an error until
  /// it is re-allocated.
  Status Free(BlockId id);

  /// Reads the raw content of a block (counted; subject to fault
  /// injection).
  Result<std::string> Read(BlockId id);

  /// Overwrites the content of a block (counted; subject to fault
  /// injection). Content must fit in block_size() bytes.
  Status Write(BlockId id, std::string content);

  bool IsAllocated(BlockId id) const {
    std::lock_guard<std::mutex> lk(mu_);
    return blocks_.contains(id);
  }
  /// Snapshot of every currently allocated block id (unordered). Offline
  /// salvage sweeps use this to look for orphaned WAL chunks past a
  /// damaged tail; it works on a crashed disk, like PeekRaw().
  std::vector<BlockId> AllocatedBlocks() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<BlockId> ids;
    ids.reserve(blocks_.size());
    for (const auto& [id, content] : blocks_) ids.push_back(id);
    return ids;
  }
  size_t num_allocated_blocks() const {
    std::lock_guard<std::mutex> lk(mu_);
    return blocks_.size();
  }

  // --- Fault injection ----------------------------------------------------

  /// Installs a fault schedule (nullptr removes it). Not owned; must
  /// outlive the disk or be removed first.
  void set_fault_policy(FaultPolicy* policy) { fault_policy_ = policy; }

  /// True after an injected fail-stop crash: every Allocate/Free/Read/
  /// Write now fails with kIoError.
  bool crashed() const { return crashed_; }

  /// Offline platter access for recovery: reads the durable content of a
  /// block, uncounted, bypassing fault injection and the crashed state —
  /// the platter survives a power loss even though the device is dead.
  /// NotFound for unallocated blocks.
  Result<std::string> PeekRaw(BlockId id) const;

  /// Test hook: flips one bit of the stored content in place (simulating
  /// at-rest bit rot), so checksum verification can be exercised against a
  /// specific block. `bit_index` is taken modulo the content size in bits.
  Status FlipBitForTesting(BlockId id, size_t bit_index);

  /// Write (resp. read) attempts so far — the op_index the FaultPolicy
  /// sees next. The crash-point harness sweeps over these.
  uint64_t write_attempts() const { return write_attempts_; }
  uint64_t read_attempts() const { return read_attempts_; }

  /// Models platter seek/transfer time: every successful Write sleeps
  /// this long while holding the device (one head — concurrent callers
  /// queue). 0 (the default) keeps the disk instantaneous. Benchmarks use
  /// this to create realistic commit pressure for WAL group commit.
  void set_write_latency_us(uint64_t us) {
    write_latency_us_.store(us, std::memory_order_relaxed);
  }

  const DiskStats& stats() const { return stats_; }
  void ResetStats() { stats_ = DiskStats{}; }

 private:
  Status CrashedError() const {
    return Status::IoError("simulated disk has crashed (fail-stop)");
  }

  mutable std::mutex mu_;
  size_t block_size_;
  uint64_t next_block_ = 0;
  std::unordered_map<BlockId, std::string> blocks_;
  std::vector<BlockId> free_list_;
  DiskStats stats_;

  FaultPolicy* fault_policy_ = nullptr;
  bool crashed_ = false;
  uint64_t write_attempts_ = 0;
  uint64_t read_attempts_ = 0;
  std::atomic<uint64_t> write_latency_us_{0};
};

}  // namespace cactis::storage

#endif  // CACTIS_STORAGE_SIMULATED_DISK_H_
