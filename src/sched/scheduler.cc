#include "sched/scheduler.h"

#include "obs/request_context.h"

namespace cactis::sched {

std::string_view SchedulingPolicyToString(SchedulingPolicy p) {
  switch (p) {
    case SchedulingPolicy::kGreedyAdaptive:
      return "greedy-adaptive";
    case SchedulingPolicy::kGreedyStatic:
      return "greedy-static";
    case SchedulingPolicy::kDepthFirst:
      return "depth-first";
    case SchedulingPolicy::kBreadthFirst:
      return "breadth-first";
  }
  return "?";
}

ChunkScheduler::ChunkScheduler(storage::RecordStore* store,
                               SchedulingPolicy policy)
    : store_(store), policy_(policy) {}

void ChunkScheduler::Schedule(const Chunk& chunk) {
  if (auto* c = obs::RequestScope::CurrentCost()) ++c->chunks_scheduled;
  switch (policy_) {
    case SchedulingPolicy::kDepthFirst:
      dfs_stack_.push_back(chunk);
      break;
    case SchedulingPolicy::kBreadthFirst:
      bfs_queue_.push_back(chunk);
      break;
    case SchedulingPolicy::kGreedyAdaptive:
    case SchedulingPolicy::kGreedyStatic:
      if (chunk.user_request) {
        user_.push_back(chunk);
      } else if (store_ != nullptr &&
                 store_->IsInstanceResident(chunk.target())) {
        high_.push_back(chunk);
      } else {
        Park(chunk);
      }
      break;
  }
}

void ChunkScheduler::Park(const Chunk& chunk) {
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  uint64_t seq = ++next_seq_;
  slab_[slot] = Parked{seq, chunk};
  pending_.push({chunk.expected_io, seq, slot});
  if (store_ == nullptr) return;
  auto block = store_->BlockOf(chunk.target());
  if (block.ok()) by_block_[*block].push_back({slot, seq});
}

Chunk ChunkScheduler::Unpark(uint32_t slot) {
  slab_[slot].seq = 0;
  free_slots_.push_back(slot);
  return slab_[slot].chunk;
}

void ChunkScheduler::OnBlockLoaded(BlockId id) {
  auto it = by_block_.find(id);
  if (it == by_block_.end()) return;
  for (const SlabRef& ref : it->second) {
    if (slab_[ref.slot].seq != ref.seq) continue;  // ran from pending_
    high_.push_back(Unpark(ref.slot));
    ++stats_.promotions;
  }
  by_block_.erase(it);
}

bool ChunkScheduler::PopNext(Chunk* out) {
  switch (policy_) {
    case SchedulingPolicy::kDepthFirst:
      if (dfs_stack_.empty()) return false;
      *out = dfs_stack_.back();
      dfs_stack_.pop_back();
      return true;
    case SchedulingPolicy::kBreadthFirst:
      if (bfs_queue_.empty()) return false;
      *out = bfs_queue_.front();
      bfs_queue_.pop_front();
      return true;
    case SchedulingPolicy::kGreedyAdaptive:
    case SchedulingPolicy::kGreedyStatic: {
      if (!high_.empty()) {
        *out = high_.front();
        high_.pop_front();
        ++stats_.high_runs;
        return true;
      }
      if (!user_.empty()) {
        *out = user_.front();
        user_.pop_front();
        return true;
      }
      while (!pending_.empty()) {
        IoOrder top = pending_.top();
        pending_.pop();
        if (slab_[top.slot].seq != top.seq) continue;  // promoted already
        *out = Unpark(top.slot);
        ++stats_.pending_runs;
        return true;
      }
      return false;
    }
  }
  return false;
}

bool ChunkScheduler::Idle() const {
  return high_.empty() && user_.empty() && dfs_stack_.empty() &&
         bfs_queue_.empty() && free_slots_.size() == slab_.size();
}

Status ChunkScheduler::RunUntilIdle(ChunkRunner& runner) {
  Chunk chunk;
  while (PopNext(&chunk)) {
    // The chunk body faults its owner's block in itself (so the engine
    // can attribute the I/O to the right traversal); the resulting
    // OnBlockLoaded event promotes sibling chunks on the same block.
    ++stats_.chunks_run;
    CACTIS_RETURN_IF_ERROR(runner.RunChunk(chunk));
  }
  return Status::OK();
}

}  // namespace cactis::sched
