// ChunkScheduler: the simulated-concurrency traversal engine of paper
// section 2.3.
//
// Cactis expresses the mark-out-of-date and attribute-evaluation
// traversals as *chunks* — small units of work, each associated with one
// instance — and turns the choice of traversal order into a scheduling
// decision:
//
//  * a hash index keeps pending chunks keyed by the disk block of their
//    instance; when the buffer pool reads a block, that block's chunks are
//    promoted to a very-high-priority queue ("processes which can be
//    executed without disk access always have priority");
//  * chunks whose instance is already resident are queued high directly;
//  * direct user requests get a special priority queue;
//  * everything else is ordered by expected disk I/O, lowest first, where
//    the estimate comes from per-relationship decaying averages (or
//    worst-case statistics for marking).
//
// Fixed-order baseline policies (depth-first / breadth-first) are provided
// for experiment E4, which reproduces the paper's claim that the greedy
// adaptive order reduces disk access.

#ifndef CACTIS_SCHED_SCHEDULER_H_
#define CACTIS_SCHED_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/record_store.h"

namespace cactis::sched {

enum class SchedulingPolicy {
  /// The paper's policy: in-memory first, then least expected I/O, with
  /// decaying-average adaptation.
  kGreedyAdaptive,
  /// Greedy with static (cluster-time) estimates only; the adaptation
  /// ablation of experiment E6.
  kGreedyStatic,
  /// Fixed depth-first order (a "naive trigger" style traversal).
  kDepthFirst,
  /// Fixed breadth-first / FIFO order.
  kBreadthFirst,
};

std::string_view SchedulingPolicyToString(SchedulingPolicy p);

/// What a chunk does: the steps of paper section 2.2's two phases.
enum class ChunkKind : uint8_t {
  kMark,     // mark one attribute out of date, then schedule its dependents
  kGather,   // evaluation chunk 1: request the values a rule depends on
  kResolve,  // touch a remote dependency's instance; request it if stale
  kCompute,  // evaluation chunk 2: run the rule and publish the value
};

/// A schedulable unit of work: a plain value naming one step on one
/// attribute. The ChunkRunner handed to RunUntilIdle carries it out, and
/// may schedule further chunks while doing so.
struct Chunk {
  ChunkKind kind = ChunkKind::kMark;
  bool user_request = false;  // "direct user requests" special priority
  uint32_t attr = 0;          // attribute index within `owner`'s class
  InstanceId owner;           // the attribute's instance
  // kResolve only: the edge crossed to the dependency, and the rule
  // dependency it supplies (index into the owner attribute's deps of
  // class `owner_class`, so the value is named without touching `owner`).
  EdgeId edge;
  InstanceId peer;
  uint32_t peer_port = 0;
  uint32_t dep = 0;
  ClassId owner_class;
  double expected_io = 1.0;  // priority key: expected block reads

  /// The instance whose block the chunk touches: the peer for a resolve
  /// chunk, the owner otherwise.
  InstanceId target() const {
    return kind == ChunkKind::kResolve ? peer : owner;
  }
};

/// Carries out chunks for RunUntilIdle.
class ChunkRunner {
 public:
  virtual Status RunChunk(const Chunk& chunk) = 0;

 protected:
  ~ChunkRunner() = default;
};

struct SchedulerStats {
  uint64_t chunks_run = 0;
  uint64_t promotions = 0;      // pending -> high on block load
  uint64_t high_runs = 0;       // chunks run from the in-memory queue
  uint64_t pending_runs = 0;    // chunks run from the expected-I/O queue

  void ExportTo(obs::MetricsGroup* g) const {
    g->AddCounter("chunks_run", chunks_run);
    g->AddCounter("promotions", promotions);
    g->AddCounter("high_runs", high_runs);
    g->AddCounter("pending_runs", pending_runs);
  }
};

class ChunkScheduler : public storage::ResidencyListener {
 public:
  ChunkScheduler(storage::RecordStore* store, SchedulingPolicy policy);

  void set_policy(SchedulingPolicy policy) { policy_ = policy; }
  SchedulingPolicy policy() const { return policy_; }

  /// Enqueues a chunk. May be called while RunUntilIdle is draining (a
  /// running chunk scheduling its successors).
  void Schedule(const Chunk& chunk);

  /// Hands chunks to `runner` until every queue is empty. Returns the
  /// first error; the chunks still queued then stay queued.
  Status RunUntilIdle(ChunkRunner& runner);

  bool Idle() const;

  // storage::ResidencyListener:
  void OnBlockLoaded(BlockId id) override;
  void OnBlockEvicted(BlockId /*id*/,
                      const storage::BlockImage& /*image*/) override {}

  const SchedulerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = SchedulerStats{}; }

 private:
  /// Takes the next chunk to run under the current policy into `out`;
  /// false when every queue is empty.
  bool PopNext(Chunk* out);
  /// Queues a greedy chunk whose block is not resident: into the slab,
  /// the expected-I/O queue and the block index.
  void Park(const Chunk& chunk);
  /// Moves a parked chunk out of its slab slot and frees the slot.
  Chunk Unpark(uint32_t slot);

  storage::RecordStore* store_;
  SchedulingPolicy policy_;

  // Chunks that may be taken from only one place are held by value.
  std::deque<Chunk> high_;  // in-memory / promoted
  std::deque<Chunk> user_;  // direct user requests
  std::vector<Chunk> dfs_stack_;
  std::deque<Chunk> bfs_queue_;

  // A parked chunk is reachable from two places, the expected-I/O queue
  // and the block index, and runs from whichever reaches it first. It
  // lives in a slab slot stamped with the chunk's sequence number; a
  // reference whose number no longer matches its slot is stale (the
  // chunk already ran, and the slot may hold another) and is skipped.
  struct Parked {
    uint64_t seq = 0;  // 0: slot free
    Chunk chunk;
  };
  struct SlabRef {
    uint32_t slot;
    uint64_t seq;
  };
  std::vector<Parked> slab_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
  struct IoOrder {
    double expected_io;
    uint64_t seq;
    uint32_t slot;
    bool operator>(const IoOrder& o) const {
      if (expected_io != o.expected_io) return expected_io > o.expected_io;
      return seq > o.seq;
    }
  };
  std::priority_queue<IoOrder, std::vector<IoOrder>, std::greater<IoOrder>>
      pending_;
  std::unordered_map<BlockId, std::vector<SlabRef>> by_block_;

  SchedulerStats stats_;
};

}  // namespace cactis::sched

#endif  // CACTIS_SCHED_SCHEDULER_H_
