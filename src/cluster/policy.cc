#include "cluster/policy.h"

#include <algorithm>
#include <queue>
#include <set>

namespace cactis::cluster {
namespace {

/// The paper's greedy packing skeleton, shared by every policy:
///
///   Repeat
///     Choose the unassigned instance with the highest seed key;
///     Place this instance in the current block, or in a new block when
///     it does not fit;
///     Repeat
///       Choose the relationship belonging to some instance assigned to
///       the block such that (1) it connects to an unassigned instance
///       outside the block and (2) its pull key is the highest;
///       Assign the instance attached to this relationship to the block;
///     Until the block is full or no such relationship is left;
///   Until all instances are assigned blocks.
///
/// The paper opens a new block per seed. Here a seed whose neighbourhood
/// runs dry before the block fills hands the rest of the block to the
/// next seed: small connected components and cold leftovers share blocks
/// instead of each taking a near-empty one, so a traversal reads fewer
/// blocks (paper 2.3's cost) and the database fits a smaller pool.
///
/// Policies differ only in the two keys. Both orderings break ties on
/// lower instance id, so the placement is deterministic. Candidates that
/// no longer fit are skipped (the packer keeps trying smaller ones); an
/// instance larger than the capacity by itself still gets a cluster of
/// its own, so oversized records degrade to one-record blocks instead of
/// wedging the loop.
template <typename SeedKey, typename PullKey>
Placement PackWith(const ClusterInput& input, SeedKey seed_key,
                   PullKey pull_key) {
  Placement placement;
  placement.reserve(input.record_sizes.size());

  std::vector<InstanceId> seeds;
  seeds.reserve(input.record_sizes.size());
  for (const auto& [id, size] : input.record_sizes) {
    (void)size;
    seeds.push_back(id);
  }
  std::sort(seeds.begin(), seeds.end(), [&](InstanceId a, InstanceId b) {
    double ka = seed_key(a), kb = seed_key(b);
    if (ka != kb) return ka > kb;
    return a < b;
  });

  std::set<InstanceId> unassigned(seeds.begin(), seeds.end());
  size_t seed_cursor = 0;
  int cluster = -1;  // the block being filled; none open yet
  size_t used = 0;   // its bytes, header included

  auto size_of = [&](InstanceId id) -> size_t {
    auto it = input.record_sizes.find(id);
    size_t payload = it == input.record_sizes.end() ? 0 : it->second;
    return payload + input.per_record_overhead;
  };

  while (!unassigned.empty()) {
    while (seed_cursor < seeds.size() &&
           !unassigned.contains(seeds[seed_cursor])) {
      ++seed_cursor;
    }
    if (seed_cursor >= seeds.size()) break;  // defensive; cannot happen
    InstanceId seed = seeds[seed_cursor];

    if (cluster < 0 || used + size_of(seed) > input.block_capacity) {
      ++cluster;
      used = input.block_header;
    }
    used += size_of(seed);
    unassigned.erase(seed);
    placement.emplace_back(seed, cluster);

    // Candidate frontier: (pull key desc, peer id asc). Lazily validated.
    struct Cand {
      double key;
      InstanceId peer;
      bool operator<(const Cand& o) const {
        if (key != o.key) return key < o.key;  // max-heap by key
        return peer > o.peer;
      }
    };
    std::priority_queue<Cand> frontier;
    auto push_neighbors = [&](InstanceId from) {
      auto adj = input.adjacency.find(from);
      if (adj == input.adjacency.end()) return;
      for (const ClusterInput::Neighbor& n : adj->second) {
        if (unassigned.contains(n.peer)) frontier.push({pull_key(n), n.peer});
      }
    };
    push_neighbors(seed);

    while (!frontier.empty()) {
      Cand c = frontier.top();
      frontier.pop();
      if (!unassigned.contains(c.peer)) continue;  // stale entry
      if (used + size_of(c.peer) > input.block_capacity) {
        // The paper stops when "the block is full"; we skip candidates
        // that no longer fit and keep trying smaller ones.
        continue;
      }
      used += size_of(c.peer);
      unassigned.erase(c.peer);
      placement.emplace_back(c.peer, cluster);
      push_neighbors(c.peer);
    }
  }

  return placement;
}

}  // namespace

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kGreedyUsage:
      return "greedy_usage";
    case PolicyKind::kDstc:
      return "dstc";
    case PolicyKind::kTypeGraph:
      return "typegraph";
  }
  return "unknown";
}

std::optional<PolicyKind> PolicyKindFromName(std::string_view name) {
  for (PolicyKind kind : AllPolicyKinds()) {
    if (name == PolicyKindName(kind)) return kind;
  }
  // Convenience alias: the paper's scheme is usually just called greedy.
  if (name == "greedy") return PolicyKind::kGreedyUsage;
  return std::nullopt;
}

const std::vector<PolicyKind>& AllPolicyKinds() {
  static const std::vector<PolicyKind> kAll = {
      PolicyKind::kGreedyUsage, PolicyKind::kDstc, PolicyKind::kTypeGraph};
  return kAll;
}

Placement GreedyUsagePolicy::Place(const ClusterInput& input) const {
  auto seed_key = [&](InstanceId id) -> double {
    auto it = input.access_counts.find(id);
    return it == input.access_counts.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  auto pull_key = [](const ClusterInput::Neighbor& n) -> double {
    return static_cast<double>(n.usage);
  };
  return PackWith(input, seed_key, pull_key);
}

Placement DstcPolicy::Place(const ClusterInput& input) const {
  auto seed_key = [&](InstanceId id) -> double {
    auto it = input.decayed_access.find(id);
    return it == input.decayed_access.end() ? 0.0 : it->second;
  };
  auto pull_key = [](const ClusterInput::Neighbor& n) -> double {
    return n.decayed_usage;
  };
  return PackWith(input, seed_key, pull_key);
}

Placement TypeGraphPolicy::Place(const ClusterInput& input) const {
  // No runtime statistics: group instances of the same class (seed order
  // walks class extents lowest class id first) and pull neighbours across
  // the lowest-index relationship port first, so placement follows the
  // schema's declaration structure.
  auto seed_key = [&](InstanceId id) -> double {
    auto it = input.class_of.find(id);
    return it == input.class_of.end() ? 0.0
                                      : -static_cast<double>(it->second);
  };
  auto pull_key = [](const ClusterInput::Neighbor& n) -> double {
    return -static_cast<double>(n.rel);
  };
  return PackWith(input, seed_key, pull_key);
}

std::unique_ptr<Policy> MakePolicy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kGreedyUsage:
      return std::make_unique<GreedyUsagePolicy>();
    case PolicyKind::kDstc:
      return std::make_unique<DstcPolicy>();
    case PolicyKind::kTypeGraph:
      return std::make_unique<TypeGraphPolicy>();
  }
  return std::make_unique<GreedyUsagePolicy>();
}

}  // namespace cactis::cluster
