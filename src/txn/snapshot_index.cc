#include "txn/snapshot_index.h"

#include <algorithm>
#include <limits>
#include <mutex>

namespace cactis::txn {

// --- Snapshot handles --------------------------------------------------------

void SnapshotIndex::Snapshot::Release() {
  if (index_ != nullptr && slot_ >= 0) {
    index_->ReleaseSlot(slot_);
  }
  index_ = nullptr;
  slot_ = -1;
}

SnapshotIndex::Snapshot SnapshotIndex::Acquire() {
  for (size_t i = 0; i < kMaxSnapshots; ++i) {
    if (slots_[i].load(std::memory_order_relaxed) != 0) continue;
    // Read the sequence before claiming: if a prune races past it, the
    // strict-miss walk turns the stale snapshot into fallbacks, never
    // into wrong data (and the pruner's retention slack makes the race
    // practically unhittable).
    uint64_t seq = latest_published();
    uint64_t expected = 0;
    if (slots_[i].compare_exchange_strong(expected, seq + 1,
                                          std::memory_order_acq_rel)) {
      return Snapshot(this, static_cast<int>(i), seq,
                      epoch_.load(std::memory_order_acquire));
    }
  }
  snapshot_acquire_failures_.fetch_add(1, std::memory_order_relaxed);
  return Snapshot();
}

void SnapshotIndex::ReleaseSlot(int slot) {
  slots_[slot].store(0, std::memory_order_release);
}

uint64_t SnapshotIndex::OldestLiveSnapshot() const {
  uint64_t oldest = std::numeric_limits<uint64_t>::max();
  for (size_t i = 0; i < kMaxSnapshots; ++i) {
    uint64_t v = slots_[i].load(std::memory_order_acquire);
    if (v != 0) oldest = std::min(oldest, v - 1);
  }
  return oldest;
}

uint64_t SnapshotIndex::live_snapshots() const {
  uint64_t n = 0;
  for (size_t i = 0; i < kMaxSnapshots; ++i) {
    if (slots_[i].load(std::memory_order_relaxed) != 0) ++n;
  }
  return n;
}

// --- Ingest ------------------------------------------------------------------

SnapshotIndex::NodePtr SnapshotIndex::HeadOf(InstanceId id) const {
  const Stripe& s = StripeFor(id);
  std::shared_lock lock(s.mu);
  auto it = s.heads.find(id);
  return it == s.heads.end() ? nullptr : it->second;
}

void SnapshotIndex::PushNode(InstanceId id, VersionNode node) {
  Stripe& s = StripeFor(id);
  std::unique_lock lock(s.mu);
  auto it = s.heads.find(id);
  if (it == s.heads.end()) {
    // Only a base node opens a chain. Without one the creation itself is
    // unproven (an instance created before the index's coverage); reads
    // of it miss, so the node may be dropped without losing correctness.
    if (node.kind != NodeKind::kBase) return;
    it = s.heads.emplace(id, nullptr).first;
  }
  node.prev = std::move(it->second);
  it->second = std::make_shared<const VersionNode>(std::move(node));
  chain_nodes_.fetch_add(1, std::memory_order_relaxed);
}

void SnapshotIndex::RecordWrite(InstanceId id, uint64_t seq,
                                size_t attr_index, Value v) {
  VersionNode node;
  node.seq = seq;
  node.kind = NodeKind::kWrite;
  node.attrs.emplace_back(attr_index, std::move(v));
  PushNode(id, std::move(node));
}

void SnapshotIndex::RecordCreate(InstanceId id, uint64_t seq, ClassId cls,
                                 std::vector<std::pair<size_t, Value>>
                                     intrinsics) {
  VersionNode node;
  node.seq = seq;
  node.kind = NodeKind::kBase;
  node.class_id = cls;
  node.attrs = std::move(intrinsics);
  PushNode(id, std::move(node));
}

void SnapshotIndex::RecordDelete(InstanceId id, uint64_t seq) {
  VersionNode node;
  node.seq = seq;
  node.kind = NodeKind::kDelete;
  PushNode(id, std::move(node));
}

// --- Reader side -------------------------------------------------------------

SnapshotIndex::Lookup SnapshotIndex::ReadAttr(const Snapshot& snap,
                                              InstanceId id,
                                              size_t attr_index,
                                              Value* out) const {
  if (epoch_.load(std::memory_order_acquire) != snap.epoch()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return Lookup::kMiss;
  }
  for (NodePtr n = HeadOf(id); n != nullptr; n = n->prev) {
    if (n->seq > snap.seq()) continue;
    if (n->kind == NodeKind::kDelete) break;  // gone at S: fall back
    for (const auto& [idx, v] : n->attrs) {
      if (idx == attr_index) {
        *out = v;
        // Re-check the epoch after the walk: a concurrent history
        // truncation may have reissued this node's sequence number.
        if (epoch_.load(std::memory_order_acquire) != snap.epoch()) break;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return Lookup::kHit;
      }
    }
    // A base node carries the full intrinsic state: absence there means
    // the attribute is derived or unknown — unprovable here.
    if (n->kind == NodeKind::kBase) break;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return Lookup::kMiss;
}

bool SnapshotIndex::ClassOfChain(const NodePtr& head, uint64_t snap_seq,
                                 ClassId* out) {
  bool newest = true;
  for (const VersionNode* n = head.get(); n != nullptr; n = n->prev.get()) {
    if (n->seq > snap_seq) continue;
    if (newest && n->kind == NodeKind::kDelete) return false;
    newest = false;
    if (n->kind == NodeKind::kBase) {
      *out = n->class_id;
      return true;
    }
  }
  return false;
}

SnapshotIndex::Lookup SnapshotIndex::ClassAt(const Snapshot& snap,
                                             InstanceId id,
                                             ClassId* out) const {
  if (epoch_.load(std::memory_order_acquire) != snap.epoch()) {
    return Lookup::kMiss;
  }
  if (!ClassOfChain(HeadOf(id), snap.seq(), out) ||
      epoch_.load(std::memory_order_acquire) != snap.epoch()) {
    return Lookup::kMiss;
  }
  return Lookup::kHit;
}

SnapshotIndex::Lookup SnapshotIndex::MembersAt(
    const Snapshot& snap, ClassId cls, std::vector<InstanceId>* out) const {
  // Below the coverage floor, folds and dropped chains no longer show
  // who was live at S, so the extent is unprovable. A truncation or a
  // prune past S that overlaps the scan is caught by the re-checks after
  // it: each bumps the epoch or raises the floor before touching the
  // first stripe, and a stripe lock taken after that publishes the bump.
  auto covered = [&] {
    return epoch_.load(std::memory_order_acquire) == snap.epoch() &&
           snap.seq() >= coverage_floor();
  };
  if (covered()) {
    std::vector<InstanceId> members;
    for (const Stripe& s : stripes_) {
      std::shared_lock lock(s.mu);
      for (const auto& [id, head] : s.heads) {
        ClassId at;
        if (ClassOfChain(head, snap.seq(), &at) && at == cls) {
          members.push_back(id);
        }
      }
    }
    if (covered()) {
      std::sort(members.begin(), members.end());
      *out = std::move(members);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return Lookup::kHit;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return Lookup::kMiss;
}

// --- Maintenance -------------------------------------------------------------

void SnapshotIndex::TruncateAfter(uint64_t position) {
  // Expire every live snapshot first: the sequence numbers above
  // `position` are about to be reissued to different commits.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  for (Stripe& s : stripes_) {
    std::unique_lock lock(s.mu);
    for (auto it = s.heads.begin(); it != s.heads.end();) {
      NodePtr n = it->second;
      uint64_t dropped = 0;
      while (n != nullptr && n->seq > position) {
        n = n->prev;
        ++dropped;
      }
      if (dropped > 0) chain_nodes_.fetch_sub(dropped);
      if (n == nullptr) {
        it = s.heads.erase(it);
      } else {
        it->second = std::move(n);
        ++it;
      }
    }
  }
}

void SnapshotIndex::Prune(uint64_t floor) {
  if (floor > coverage_floor()) SetCoverageFloor(floor);
  for (Stripe& s : stripes_) {
    std::unique_lock lock(s.mu);
    for (auto it = s.heads.begin(); it != s.heads.end();) {
      // Split the chain at the floor.
      std::vector<const VersionNode*> retained;  // newest first, seq > floor
      NodePtr n = it->second;
      while (n != nullptr && n->seq > floor) {
        retained.push_back(n.get());
        n = n->prev;
      }
      // Already a lone base at or below the floor: nothing to fold.
      if (n == nullptr ||
          (n->prev == nullptr && n->kind == NodeKind::kBase)) {
        ++it;
        continue;
      }
      uint64_t old_len = retained.size();
      for (NodePtr w = n; w != nullptr; w = w->prev) ++old_len;

      if (n->kind == NodeKind::kDelete) {
        // Gone at the floor, and ids are never reused, so nothing newer
        // exists: the whole chain can go.
        pruned_versions_.fetch_add(old_len, std::memory_order_relaxed);
        chain_nodes_.fetch_sub(old_len, std::memory_order_relaxed);
        it = s.heads.erase(it);
        continue;
      }

      // Resolve the full committed state at the floor. Every chain
      // starts with a base node (only a base node opens one in
      // PushNode), so the walk always ends at one.
      VersionNode fold;
      fold.seq = floor;
      fold.kind = NodeKind::kBase;
      for (NodePtr w = n; w != nullptr; w = w->prev) {
        for (const auto& [idx, v] : w->attrs) {
          bool seen = false;
          for (const auto& [have, hv] : fold.attrs) {
            if (have == idx) {
              seen = true;
              break;
            }
          }
          if (!seen) fold.attrs.emplace_back(idx, v);
        }
        if (w->kind == NodeKind::kBase) {
          fold.class_id = w->class_id;
          break;
        }
      }

      // Rebuild: fold node at the bottom, retained nodes re-linked above
      // it (nodes are immutable, so re-linking means copying).
      NodePtr rebuilt = std::make_shared<const VersionNode>(std::move(fold));
      for (auto r = retained.rbegin(); r != retained.rend(); ++r) {
        VersionNode copy;
        copy.seq = (*r)->seq;
        copy.kind = (*r)->kind;
        copy.class_id = (*r)->class_id;
        copy.attrs = (*r)->attrs;
        copy.prev = std::move(rebuilt);
        rebuilt = std::make_shared<const VersionNode>(std::move(copy));
      }
      uint64_t new_len = retained.size() + 1;
      pruned_versions_.fetch_add(old_len - new_len,
                                 std::memory_order_relaxed);
      chain_nodes_.fetch_sub(old_len - new_len, std::memory_order_relaxed);
      it->second = std::move(rebuilt);
      ++it;
    }
  }
}

void SnapshotIndex::Reset() {
  for (Stripe& s : stripes_) {
    std::unique_lock lock(s.mu);
    s.heads.clear();
  }
  chain_nodes_.store(0, std::memory_order_relaxed);
  SetCoverageFloor(0);
  latest_published_.store(0, std::memory_order_release);
}

// --- Observability -----------------------------------------------------------

void SnapshotIndex::ExportTo(obs::MetricsGroup* g) const {
  g->AddCounter("snapshot_hits", hits());
  g->AddCounter("snapshot_misses", misses());
  g->AddCounter("pruned_versions", pruned_versions());
  g->AddCounter("acquire_failures",
                snapshot_acquire_failures_.load(std::memory_order_relaxed));
  g->AddCounter("chain_nodes", chain_nodes());
  g->AddCounter("live_snapshots", live_snapshots());
  g->AddCounter("latest_published", latest_published());
  g->AddCounter("coverage_floor", coverage_floor());
}

}  // namespace cactis::txn
