// Usage-based clustering (paper section 2.3).
//
// "We keep a count of the total number of times each instance in the
// database is accessed, as well as the number of times we cross a
// relationship between instances ... We will then periodically reorganize
// the database on the basis of this information."
//
// The packing loop itself lives behind the cluster::Policy interface
// (cluster/policy.h; the paper's greedy usage-count scheme is
// GreedyUsagePolicy); this header defines the graph view every policy
// works over.
//
// The result is a cluster index per instance; storage::RecordStore
// ApplyPlacement packs same-cluster instances into the same block.

#ifndef CACTIS_CLUSTER_REORGANIZER_H_
#define CACTIS_CLUSTER_REORGANIZER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.h"

namespace cactis::cluster {

/// The graph view the packers work over. `record_sizes` are encoded
/// record sizes; `block_capacity` is the usable bytes per block (the
/// packer accounts the same per-record overhead the record store does).
///
/// The statistic fields feed different policies:
///  * `access_counts` / `Neighbor::usage` — raw lifetime counters (the
///    paper's scheme, GreedyUsagePolicy);
///  * `decayed_access` / `Neighbor::decayed_usage` — per-observation-
///    period decayed counters (DstcPolicy); absent entries read as 0;
///  * `class_of` / `Neighbor::rel` — schema structure (TypeGraphPolicy;
///    `rel` is the port index the edge leaves through).
struct ClusterInput {
  struct Neighbor {
    InstanceId peer;
    uint64_t usage = 0;        // relationship crossing count (both directions)
    double decayed_usage = 0;  // decayed crossing count (DSTC statistic)
    uint32_t rel = 0;          // port index on this side (schema structure)
  };

  std::unordered_map<InstanceId, uint64_t> access_counts;
  std::unordered_map<InstanceId, double> decayed_access;
  std::unordered_map<InstanceId, uint32_t> class_of;
  std::unordered_map<InstanceId, std::vector<Neighbor>> adjacency;
  std::unordered_map<InstanceId, size_t> record_sizes;
  size_t block_capacity = 4096;
  size_t per_record_overhead = 12;
  size_t block_header = 4;
};

}  // namespace cactis::cluster

#endif  // CACTIS_CLUSTER_REORGANIZER_H_
