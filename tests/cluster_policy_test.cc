// cluster::Policy unit tests. The edge cases (coverage, empty input,
// singleton, oversized record, disconnected components, deterministic
// ties) are asserted for EVERY policy via a parameterised suite; the
// policy-specific suites pin down what distinguishes the three schemes:
// greedy follows raw counters, dstc follows decayed counters, typegraph
// follows schema structure only.

#include "cluster/policy.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace cactis::cluster {
namespace {

ClusterInput MakeInput(size_t capacity) {
  ClusterInput in;
  in.block_capacity = capacity;
  return in;
}

void AddInstance(ClusterInput* in, uint64_t id, uint64_t refs,
                 size_t size = 20, double decayed = -1.0,
                 uint32_t cls = 0) {
  in->access_counts[InstanceId(id)] = refs;
  in->decayed_access[InstanceId(id)] =
      decayed < 0 ? static_cast<double>(refs) : decayed;
  in->class_of[InstanceId(id)] = cls;
  in->record_sizes[InstanceId(id)] = size;
}

void AddEdge(ClusterInput* in, uint64_t a, uint64_t b, uint64_t usage,
             double decayed = -1.0, uint32_t rel = 0) {
  double d = decayed < 0 ? static_cast<double>(usage) : decayed;
  in->adjacency[InstanceId(a)].push_back({InstanceId(b), usage, d, rel});
  in->adjacency[InstanceId(b)].push_back({InstanceId(a), usage, d, rel});
}

std::map<uint64_t, int> ClusterOf(const Placement& placement) {
  std::map<uint64_t, int> out;
  for (const auto& [id, c] : placement) out[id.value] = c;
  return out;
}

// ---------------------------------------------------------------------------
// Edge cases, run against every policy.

class EveryPolicyTest : public ::testing::TestWithParam<PolicyKind> {
 protected:
  Placement Place(const ClusterInput& in) {
    return MakePolicy(GetParam())->Place(in);
  }
};

TEST_P(EveryPolicyTest, CoversEveryInstanceExactlyOnce) {
  ClusterInput in = MakeInput(100);
  for (uint64_t i = 1; i <= 10; ++i) AddInstance(&in, i, i);
  AddEdge(&in, 1, 2, 5);
  AddEdge(&in, 3, 4, 5);
  auto placement = Place(in);
  EXPECT_EQ(placement.size(), 10u);
  std::set<uint64_t> seen;
  for (const auto& [id, c] : placement) {
    EXPECT_GE(c, 0);
    EXPECT_TRUE(seen.insert(id.value).second)
        << "instance " << id.value << " placed twice";
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST_P(EveryPolicyTest, EmptyInputYieldsEmptyPlacement) {
  ClusterInput in = MakeInput(100);
  EXPECT_TRUE(Place(in).empty());
}

TEST_P(EveryPolicyTest, SingletonGetsClusterZero) {
  ClusterInput in = MakeInput(100);
  AddInstance(&in, 7, 3);
  auto placement = Place(in);
  ASSERT_EQ(placement.size(), 1u);
  EXPECT_EQ(placement[0].first, InstanceId(7));
  EXPECT_EQ(placement[0].second, 0);
}

TEST_P(EveryPolicyTest, OversizedRecordGetsItsOwnCluster) {
  // The oversized record alone exceeds the block; even its hottest
  // neighbour must not join it, and the packer must not wedge.
  ClusterInput in = MakeInput(100);
  AddInstance(&in, 1, 50, /*size=*/200);  // > capacity by itself
  AddInstance(&in, 2, 10, /*size=*/20);
  AddEdge(&in, 1, 2, 1000);
  auto map = ClusterOf(Place(in));
  ASSERT_EQ(map.size(), 2u);
  EXPECT_NE(map[1], map[2]);
}

TEST_P(EveryPolicyTest, DisconnectedComponentsAllPlaced) {
  ClusterInput in = MakeInput(200);
  AddInstance(&in, 1, 10);
  AddInstance(&in, 2, 8);
  AddInstance(&in, 3, 0);  // isolated, never referenced
  AddEdge(&in, 1, 2, 4);
  auto map = ClusterOf(Place(in));
  EXPECT_EQ(map.size(), 3u);
}

TEST_P(EveryPolicyTest, RespectsBlockCapacity) {
  // Three 40-byte records; capacity fits exactly two per block.
  ClusterInput in = MakeInput(4 + 2 * (12 + 40));
  for (uint64_t i = 1; i <= 3; ++i) AddInstance(&in, i, 10, 40);
  AddEdge(&in, 1, 2, 10);
  AddEdge(&in, 2, 3, 9);
  AddEdge(&in, 1, 3, 8);
  std::map<int, int> sizes;
  for (const auto& [id, c] : ClusterOf(Place(in))) {
    (void)id;
    sizes[c]++;
  }
  for (const auto& [c, n] : sizes) {
    (void)c;
    EXPECT_LE(n, 2);
  }
}

TEST_P(EveryPolicyTest, DeterministicUnderTies) {
  // Identical statistics everywhere: placement must still be a pure
  // function of the input (ties break on instance id).
  ClusterInput in = MakeInput(4 + 3 * (12 + 20));
  for (uint64_t i = 1; i <= 6; ++i) AddInstance(&in, i, 7);
  for (uint64_t i = 1; i < 6; ++i) AddEdge(&in, i, i + 1, 5);
  auto a = Place(in);
  auto b = Place(in);
  EXPECT_EQ(a, b);
}

TEST_P(EveryPolicyTest, NextSeedFillsTheBlockTheLastOneLeft) {
  // Three two-record components; a block fits four records. When the
  // first component's frontier runs dry the second continues its block;
  // the third no longer fits and opens the next one.
  ClusterInput in = MakeInput(4 + 4 * (12 + 20));
  for (uint64_t i = 1; i <= 6; ++i) AddInstance(&in, i, 10);
  AddEdge(&in, 1, 2, 5);
  AddEdge(&in, 3, 4, 5);
  AddEdge(&in, 5, 6, 5);
  auto map = ClusterOf(Place(in));
  ASSERT_EQ(map.size(), 6u);
  EXPECT_EQ(map[1], 0);
  EXPECT_EQ(map[2], 0);
  EXPECT_EQ(map[3], 0);
  EXPECT_EQ(map[4], 0);
  EXPECT_EQ(map[5], 1);
  EXPECT_EQ(map[6], 1);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EveryPolicyTest,
                         ::testing::ValuesIn(AllPolicyKinds()),
                         [](const ::testing::TestParamInfo<PolicyKind>& i) {
                           return std::string(PolicyKindName(i.param));
                         });

// ---------------------------------------------------------------------------
// What distinguishes the policies.

TEST(GreedyVsDstcTest, DstcFollowsDecayedEdgeUsage) {
  // A's edge to B is hot by lifetime count, its edge to C is hot by
  // decayed (recent) count. One block fits two records: greedy keeps the
  // historical pair, dstc re-clusters toward the recent one.
  ClusterInput in = MakeInput(4 + 2 * (12 + 20));
  AddInstance(&in, 1, 100, 20, 100.0);
  AddInstance(&in, 2, 50, 20, 1.0);
  AddInstance(&in, 3, 10, 20, 60.0);
  AddEdge(&in, 1, 2, /*usage=*/1000, /*decayed=*/0.5);
  AddEdge(&in, 1, 3, /*usage=*/10, /*decayed=*/900.0);
  auto greedy = ClusterOf(GreedyUsagePolicy().Place(in));
  EXPECT_EQ(greedy[1], greedy[2]);
  EXPECT_NE(greedy[1], greedy[3]);
  auto dstc = ClusterOf(DstcPolicy().Place(in));
  EXPECT_EQ(dstc[1], dstc[3]);
  EXPECT_NE(dstc[1], dstc[2]);
}

TEST(GreedyVsDstcTest, DstcSeedsByDecayedAccess) {
  // One record per block: the seed order is the whole placement. Raw
  // counters favour instance 1, decayed counters instance 2.
  ClusterInput in = MakeInput(4 + 12 + 20);
  AddInstance(&in, 1, 100, 20, /*decayed=*/1.0);
  AddInstance(&in, 2, 10, 20, /*decayed=*/90.0);
  auto greedy = ClusterOf(GreedyUsagePolicy().Place(in));
  EXPECT_EQ(greedy[1], 0);
  auto dstc = ClusterOf(DstcPolicy().Place(in));
  EXPECT_EQ(dstc[2], 0);
}

TEST(TypeGraphTest, SeedsByClassThenId) {
  // No runtime statistics help typegraph: seeding is (class asc, id asc).
  ClusterInput in = MakeInput(4 + 12 + 20);  // one record per block
  AddInstance(&in, 5, 1000, 20, 1000.0, /*cls=*/1);
  AddInstance(&in, 9, 0, 20, 0.0, /*cls=*/0);
  auto map = ClusterOf(TypeGraphPolicy().Place(in));
  EXPECT_EQ(map[9], 0);  // lower class id seeds first despite zero usage
  EXPECT_EQ(map[5], 1);
}

TEST(TypeGraphTest, PullsLowestRelationshipFirst) {
  // A reaches B over relationship 0 and C over relationship 1; one block
  // fits two records. Structure, not usage, decides: B joins A.
  ClusterInput in = MakeInput(4 + 2 * (12 + 20));
  AddInstance(&in, 1, 9, 20);
  AddInstance(&in, 2, 1, 20);
  AddInstance(&in, 3, 1, 20);
  AddEdge(&in, 1, 2, /*usage=*/1, /*decayed=*/1.0, /*rel=*/0);
  AddEdge(&in, 1, 3, /*usage=*/1000, /*decayed=*/1000.0, /*rel=*/1);
  auto map = ClusterOf(TypeGraphPolicy().Place(in));
  EXPECT_EQ(map[1], map[2]);
  EXPECT_NE(map[1], map[3]);
  // Greedy, for contrast, chases the hot edge.
  auto greedy = ClusterOf(GreedyUsagePolicy().Place(in));
  EXPECT_EQ(greedy[1], greedy[3]);
}

TEST(PolicyRegistryTest, NamesRoundTrip) {
  for (PolicyKind kind : AllPolicyKinds()) {
    auto back = PolicyKindFromName(PolicyKindName(kind));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, kind);
    EXPECT_EQ(MakePolicy(kind)->kind(), kind);
  }
  EXPECT_EQ(PolicyKindFromName("greedy"), PolicyKind::kGreedyUsage);
  EXPECT_FALSE(PolicyKindFromName("nope").has_value());
}

}  // namespace
}  // namespace cactis::cluster
