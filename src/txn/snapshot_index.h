// SnapshotIndex: per-instance version chains for MVCC snapshot reads.
//
// The VersionStore retains every committed TransactionDelta as a linear
// history, which is perfect for undo/redo but useless for point reads: a
// reader asking "what was obj.v at commit seq S?" would have to scan the
// whole log. This index reorganises the same committed facts into
// per-instance chains of immutable version nodes, newest first, so a
// read-only statement can resolve any intrinsic attribute against the
// newest version <= its snapshot sequence without taking the statement
// lock and without touching the timestamp-ordering marks.
//
// Threading model (the whole point of this file):
//   - All mutators (Record*, TruncateAfter, Prune, SetLatestPublished)
//     run under the database's statement lock, so they are
//     serialised against each other. Readers are NOT excluded.
//   - A reader copies a chain head under a striped shared_mutex, then
//     walks prev pointers with no lock at all: nodes are immutable once
//     published and kept alive by shared_ptr, so a concurrent truncate or
//     prune can only unhook nodes the reader already holds. An extent
//     scan walks each stripe's chains under that stripe's shared lock.
//   - latest_published_ is a release-store / acquire-load sequence
//     number: a snapshot acquired at S is guaranteed to see every chain
//     node with seq <= S, because the node inserts happen-before the
//     SetLatestPublished(S) that made S visible.
//
// The chains are the only store of committed history: a class extent at
// S is derived by scanning them (every instance whose newest node <= S
// is live and whose base node names the class), so the index holds no
// per-class state.
//
// Strict-miss rule: the index never guesses. Any situation where the
// chain cannot prove the committed value at S — derived attribute (never
// chained), instance with no node <= S (created later, or pruned past S),
// newest node <= S is a delete, an extent asked below the coverage
// floor — is a *miss*, and the caller falls back to the locked read
// path. A miss is never wrong, only slower.
//
// Pruning folds every node with seq <= floor into a single base node at
// the floor (full intrinsic state), bounding memory. The caller picks a
// floor no newer than the oldest live snapshot, the oldest named
// version, and the current checkout position, so a fold can never steal
// a version a live reader still needs.

#ifndef CACTIS_TXN_SNAPSHOT_INDEX_H_
#define CACTIS_TXN_SNAPSHOT_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/value.h"
#include "obs/metrics.h"

namespace cactis::txn {

class SnapshotIndex {
 public:
  /// Concurrent statements that can hold a snapshot at once. Acquire()
  /// returns an invalid handle when all slots are busy; the caller falls
  /// back to the locked path.
  static constexpr size_t kMaxSnapshots = 64;

  enum class Lookup { kHit, kMiss };

  /// RAII registration of a live snapshot: while alive, Prune() will not
  /// fold past its sequence. Movable, not copyable.
  class Snapshot {
   public:
    Snapshot() = default;
    Snapshot(Snapshot&& other) noexcept { *this = std::move(other); }
    Snapshot& operator=(Snapshot&& other) noexcept {
      Release();
      index_ = other.index_;
      slot_ = other.slot_;
      seq_ = other.seq_;
      epoch_ = other.epoch_;
      other.index_ = nullptr;
      other.slot_ = -1;
      return *this;
    }
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;
    ~Snapshot() { Release(); }

    bool valid() const { return index_ != nullptr; }
    uint64_t seq() const { return seq_; }
    uint64_t epoch() const { return epoch_; }
    void Release();

   private:
    friend class SnapshotIndex;
    Snapshot(SnapshotIndex* index, int slot, uint64_t seq, uint64_t epoch)
        : index_(index), slot_(slot), seq_(seq), epoch_(epoch) {}

    SnapshotIndex* index_ = nullptr;
    int slot_ = -1;
    uint64_t seq_ = 0;
    uint64_t epoch_ = 0;
  };

  /// Registers a snapshot at the latest published sequence. Invalid when
  /// every slot is taken (caller falls back).
  Snapshot Acquire();

  /// The smallest sequence any live snapshot holds, or UINT64_MAX.
  uint64_t OldestLiveSnapshot() const;

  /// Publishes sequence `seq`: chain nodes ingested before this call
  /// become visible to snapshots acquired after it. Release-store.
  void SetLatestPublished(uint64_t seq) {
    latest_published_.store(seq, std::memory_order_release);
  }
  uint64_t latest_published() const {
    return latest_published_.load(std::memory_order_acquire);
  }

  // --- Ingest (statement lock held by the caller) -------------------------

  /// A committed intrinsic write at `seq`. Dropped (not an error) when
  /// the instance has no chain: reads of such an instance miss anyway.
  void RecordWrite(InstanceId id, uint64_t seq, size_t attr_index, Value v);

  /// A base version with the instance's class and full intrinsic state:
  /// a committed creation at `seq`, or (checkpoint restore) an instance
  /// known to be live at `seq`.
  void RecordCreate(InstanceId id, uint64_t seq, ClassId cls,
                    std::vector<std::pair<size_t, Value>> intrinsics);

  /// A committed instance deletion.
  void RecordDelete(InstanceId id, uint64_t seq);

  // --- Reader side (lock-free walks; safe against all mutators) -----------

  /// Resolves intrinsic attribute `attr_index` of `id` as of `snap`.
  /// kHit fills `out` with the committed value; kMiss means the chain
  /// cannot prove it (fall back to the locked path). Every lookup misses
  /// once the epoch moved past the snapshot's (an undo meta-action
  /// truncated history, so the snapshot's sequence numbers may have been
  /// reissued to different commits).
  Lookup ReadAttr(const Snapshot& snap, InstanceId id, size_t attr_index,
                  Value* out) const;

  /// Resolves the class of `id` as of `snap` (miss when the instance is
  /// unproven or deleted at the snapshot).
  Lookup ClassAt(const Snapshot& snap, InstanceId id, ClassId* out) const;

  /// The sorted extent of `cls` as of `snap`, derived by scanning every
  /// chain; miss below the coverage floor or when a truncation or a prune
  /// past the snapshot overlapped the scan.
  Lookup MembersAt(const Snapshot& snap, ClassId cls,
                   std::vector<InstanceId>* out) const;

  // --- Maintenance (statement lock held by the caller) --------------------

  /// Drops every node with seq > position: the redo tail was truncated
  /// (undo meta-action followed by new work) and those sequence numbers
  /// will be reissued to different deltas. Bumps the epoch, expiring
  /// every live snapshot (their reads turn into fallbacks).
  void TruncateAfter(uint64_t position);

  /// Folds all versions with seq <= floor into one base node per chain.
  /// The caller guarantees floor <= every live snapshot, named version
  /// and the current checkout position.
  void Prune(uint64_t floor);

  /// Sequence below which the index has no coverage (checkpoint restore
  /// or pruning): chains folded or dropped below it cannot prove an
  /// extent there, so MembersAt misses.
  uint64_t coverage_floor() const {
    return coverage_floor_.load(std::memory_order_acquire);
  }
  void SetCoverageFloor(uint64_t floor) {
    coverage_floor_.store(floor, std::memory_order_release);
  }

  /// Drops all chains and registers nothing (fresh Recover()).
  void Reset();

  // --- Observability ------------------------------------------------------

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t pruned_versions() const {
    return pruned_versions_.load(std::memory_order_relaxed);
  }
  uint64_t chain_nodes() const {
    return chain_nodes_.load(std::memory_order_relaxed);
  }
  uint64_t live_snapshots() const;

  void ExportTo(obs::MetricsGroup* g) const;

 private:
  struct VersionNode;
  using NodePtr = std::shared_ptr<const VersionNode>;

  // kBase: a creation, a checkpoint base or a prune fold.
  enum class NodeKind : uint8_t { kBase, kWrite, kDelete };

  // One committed version of one instance. Immutable after publication.
  struct VersionNode {
    uint64_t seq = 0;
    NodeKind kind = NodeKind::kWrite;
    ClassId class_id;  // kBase only
    // kWrite: the attributes this commit wrote (sparse). kBase: the full
    // intrinsic state. Empty for kDelete.
    std::vector<std::pair<size_t, Value>> attrs;
    NodePtr prev;
  };

  static constexpr size_t kStripes = 16;
  struct Stripe {
    mutable std::shared_mutex mu;
    std::unordered_map<InstanceId, NodePtr> heads;
  };

  Stripe& StripeFor(InstanceId id) {
    return stripes_[id.value % kStripes];
  }
  const Stripe& StripeFor(InstanceId id) const {
    return stripes_[id.value % kStripes];
  }

  NodePtr HeadOf(InstanceId id) const;
  // Pushes `node` onto the chain of `id`; only a base node opens one.
  void PushNode(InstanceId id, VersionNode node);
  // The class of the chain `head` as of `snap_seq`, or false when the
  // instance is unproven or deleted there. Lock-free walk.
  static bool ClassOfChain(const NodePtr& head, uint64_t snap_seq,
                           ClassId* out);

  void ReleaseSlot(int slot);

  // Counters declared before the chains so node teardown in the
  // destructor never outlives them. hits_/misses_ are mutable because
  // the reader-side lookups are const.
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> pruned_versions_{0};
  std::atomic<uint64_t> chain_nodes_{0};
  std::atomic<uint64_t> snapshot_acquire_failures_{0};

  std::atomic<uint64_t> latest_published_{0};
  // Bumped whenever committed history is truncated (sequence numbers get
  // reissued); snapshots from an older epoch always miss.
  std::atomic<uint64_t> epoch_{0};
  // seq + 1 of the registered snapshot; 0 = free slot.
  std::atomic<uint64_t> slots_[kMaxSnapshots] = {};

  // Mutated only under the statement lock, and raised before a prune
  // touches any stripe: an extent scan that saw a folded chain re-reads
  // it and misses.
  std::atomic<uint64_t> coverage_floor_{0};

  Stripe stripes_[kStripes];
};

}  // namespace cactis::txn

#endif  // CACTIS_TXN_SNAPSHOT_INDEX_H_
