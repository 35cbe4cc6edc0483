// Mass-storage behaviour: instance serialisation round-trips, correctness
// under tiny buffer pools (heavy eviction), lazy out-of-date state
// surviving eviction, clustering reorganisation preserving content and
// reducing I/O.

#include <gtest/gtest.h>

#include "common/serial.h"
#include "core/database.h"
#include "core/instance.h"

namespace cactis::core {
namespace {

TEST(InstanceSerializationTest, RoundTripsAllState) {
  schema::Catalog cat;
  schema::ClassBuilder b(&cat, "thing");
  b.Port("peers", "link", schema::Side::kPlug);
  b.Intrinsic("name", ValueType::kString);
  b.Derived("shadow", ValueType::kInt, "1 + 1");
  ASSERT_TRUE(b.Build().ok());
  const schema::ObjectClass* cls = cat.FindClass("thing");

  Instance inst = Instance::Create(InstanceId(7), *cls);
  inst.attrs()[0].value = Value::String("cactis");
  inst.attrs()[1].value = Value::Int(2);
  inst.attrs()[1].out_of_date = false;
  inst.attrs()[1].subscribed = true;
  inst.ports()[0].push_back(EdgeRecord{EdgeId(3), InstanceId(9), 4});

  auto back = Instance::Deserialize(inst.Serialize(), cat);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->id(), InstanceId(7));
  EXPECT_EQ(back->class_id(), cls->id());
  EXPECT_EQ(back->attrs()[0].value, Value::String("cactis"));
  EXPECT_EQ(back->attrs()[1].value, Value::Int(2));
  EXPECT_FALSE(back->attrs()[1].out_of_date);
  EXPECT_TRUE(back->attrs()[1].subscribed);
  ASSERT_EQ(back->ports()[0].size(), 1u);
  EXPECT_EQ(back->ports()[0][0].peer, InstanceId(9));
  EXPECT_EQ(back->ports()[0][0].peer_port, 4u);
  EXPECT_EQ(back->ports()[0][0].id, EdgeId(3));
}

TEST(InstanceSerializationTest, DeserializeMigratesToExtendedClass) {
  schema::Catalog cat;
  schema::ClassBuilder b(&cat, "thing");
  b.Intrinsic("x", ValueType::kInt);
  ASSERT_TRUE(b.Build().ok());
  std::string payload =
      Instance::Create(InstanceId(1), *cat.FindClass("thing")).Serialize();

  // Extend the class after serialisation: old records must grow on load.
  ASSERT_TRUE(
      cat.ExtendClassWithDerived("thing", "y", ValueType::kInt, "x + 1").ok());
  auto inst = Instance::Deserialize(payload, cat);
  ASSERT_TRUE(inst.ok());
  ASSERT_EQ(inst->attrs().size(), 2u);
  EXPECT_TRUE(inst->attrs()[1].out_of_date);  // new derived slot
}

// A class with every intrinsic kind the record codec distinguishes:
// ints take the inline zigzag path, everything else goes through
// ValueCodec.
const schema::ObjectClass* MixedClass(schema::Catalog* cat) {
  schema::ClassBuilder b(cat, "mixed");
  b.Port("peers", "link", schema::Side::kPlug);
  b.Port("more", "link", schema::Side::kSocket);
  b.Intrinsic("i", ValueType::kInt);
  b.Intrinsic("j", ValueType::kInt);
  b.Intrinsic("s", ValueType::kString);
  b.Intrinsic("r", ValueType::kReal);
  b.Intrinsic("flag", ValueType::kBool);
  b.Intrinsic("when", ValueType::kTime);
  EXPECT_TRUE(b.Build().ok());
  return cat->FindClass("mixed");
}

TEST(InstanceSerializationTest, RoundTripsVarintBoundaries) {
  schema::Catalog cat;
  const schema::ObjectClass* cls = MixedClass(&cat);
  ASSERT_NE(cls, nullptr);
  const uint64_t kBig[] = {0, 127, 128, 1ull << 32, 1ull << 63, UINT64_MAX};
  const int64_t kInts[] = {0,   -1,        1,         127,
                           128, INT64_MIN, INT64_MAX, -(1ll << 40)};

  for (uint64_t big : kBig) {
    for (int64_t iv : kInts) {
      Instance inst = Instance::Create(InstanceId(big | 1), *cls);
      inst.attrs()[0].value = Value::Int(iv);
      inst.attrs()[0].subscribed = true;
      inst.attrs()[1].value = Value::Int(static_cast<int64_t>(big));
      inst.attrs()[2].value = Value::String("not an int");
      inst.attrs()[3].value = Value::Real(-2.5);
      inst.attrs()[4].value = Value::Bool(true);
      inst.attrs()[5].value = Value::Time(static_cast<int64_t>(big >> 1));
      inst.ports()[0].push_back(
          EdgeRecord{EdgeId(big), InstanceId(big), UINT32_MAX});
      inst.ports()[0].push_back(EdgeRecord{EdgeId((1ull << 32) + 5),
                                           InstanceId(128), 128});
      inst.ports()[1].push_back(EdgeRecord{EdgeId(1), InstanceId(2), 0});

      auto back = Instance::Deserialize(inst.Serialize(), cat);
      ASSERT_TRUE(back.ok()) << back.status();
      EXPECT_EQ(back->id(), inst.id());
      EXPECT_EQ(back->class_id(), cls->id());
      ASSERT_EQ(back->attrs().size(), inst.attrs().size());
      for (size_t a = 0; a < inst.attrs().size(); ++a) {
        EXPECT_EQ(back->attrs()[a].value, inst.attrs()[a].value) << a;
        EXPECT_EQ(back->attrs()[a].out_of_date, inst.attrs()[a].out_of_date);
        EXPECT_EQ(back->attrs()[a].subscribed, inst.attrs()[a].subscribed);
      }
      ASSERT_EQ(back->ports().size(), 2u);
      for (size_t p = 0; p < 2; ++p) {
        ASSERT_EQ(back->ports()[p].size(), inst.ports()[p].size());
        for (size_t e = 0; e < inst.ports()[p].size(); ++e) {
          EXPECT_EQ(back->ports()[p][e].id, inst.ports()[p][e].id);
          EXPECT_EQ(back->ports()[p][e].peer, inst.ports()[p][e].peer);
          EXPECT_EQ(back->ports()[p][e].peer_port,
                    inst.ports()[p][e].peer_port);
        }
      }
    }
  }
}

TEST(InstanceSerializationTest, SmallIdsEncodeCompactly) {
  // A DAG cell with small ids, two int attributes and six edges: one or
  // two bytes per field, against 172 bytes of fixed-width fields.
  schema::Catalog cat;
  schema::ClassBuilder b(&cat, "cell");
  b.Port("prev", "chain", schema::Side::kSocket);
  b.Port("next", "chain", schema::Side::kPlug);
  b.Intrinsic("base", ValueType::kInt);
  b.Intrinsic("acc", ValueType::kInt);
  ASSERT_TRUE(b.Build().ok());
  Instance inst = Instance::Create(InstanceId(3000), *cat.FindClass("cell"));
  inst.attrs()[0].value = Value::Int(42);
  inst.attrs()[1].value = Value::Int(-90000);
  for (uint64_t e = 0; e < 3; ++e) {
    inst.ports()[0].push_back(
        EdgeRecord{EdgeId(9000 + e), InstanceId(100 + e), 1});
    inst.ports()[1].push_back(
        EdgeRecord{EdgeId(9100 + e), InstanceId(4000 + e), 0});
  }
  EXPECT_LE(inst.Serialize().size(), 48u);
}

TEST(InstanceSerializationTest, TruncatedRecordIsIoError) {
  schema::Catalog cat;
  const schema::ObjectClass* cls = MixedClass(&cat);
  ASSERT_NE(cls, nullptr);
  Instance inst = Instance::Create(InstanceId(1ull << 40), *cls);
  inst.attrs()[0].value = Value::Int(INT64_MIN);
  inst.attrs()[2].value = Value::String("payload");
  inst.ports()[0].push_back(EdgeRecord{EdgeId(1ull << 35), InstanceId(5), 1});
  const std::string full = inst.Serialize();
  for (size_t n = 0; n < full.size(); ++n) {
    auto back = Instance::Deserialize(full.substr(0, n), cat);
    ASSERT_FALSE(back.ok()) << "prefix of " << n << " bytes decoded";
    EXPECT_EQ(back.status().code(), StatusCode::kIoError) << n;
  }
  // Trailing garbage is corruption too.
  auto trailing = Instance::Deserialize(full + '\0', cat);
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), StatusCode::kIoError);
}

TEST(InstanceSerializationTest, OverlongVarintIsIoError) {
  schema::Catalog cat;
  const schema::ObjectClass* cls = MixedClass(&cat);
  ASSERT_NE(cls, nullptr);
  const std::string full = Instance::Create(InstanceId(1), *cls).Serialize();
  ASSERT_EQ(full[0], '\x01');  // the id is the record's first varint
  // The same id padded to eleven bytes, and a ten-byte id past 2^64.
  std::string eleven =
      "\x81" + std::string(9, '\x80') + '\x00' + full.substr(1);
  std::string past64 = std::string(9, '\xff') + '\x7f' + full.substr(1);
  for (const std::string& bad : {eleven, past64}) {
    auto back = Instance::Deserialize(bad, cat);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::kIoError);
  }
}

TEST(InstanceSerializationTest, HugeCountsAreIoErrorNotAllocations) {
  schema::Catalog cat;
  ASSERT_NE(MixedClass(&cat), nullptr);
  BinaryWriter w;
  w.PutVarint(1);                // id
  w.PutVarint(1);                // class
  w.PutVarint(UINT64_MAX >> 1);  // attribute count
  auto back = Instance::Deserialize(w.data(), cat);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kIoError);
}

const char* kGraphSchema = R"(
  object class cell is
    relationships
      prev : chain multi socket;
      next : chain multi plug;
    attributes
      base : int;
      acc  : int;
    rules
      acc = begin
        t : int;
        t = base;
        for each p related to prev do
          t = t + p.acc;
        end;
        return t;
      end;
  end object;
)";

TEST(PersistenceTest, CorrectUnderTinyBufferPool) {
  DatabaseOptions opts;
  opts.buffer_capacity = 2;  // brutal eviction pressure
  opts.block_size = 512;
  Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kGraphSchema).ok());

  std::vector<InstanceId> ids;
  for (int i = 0; i < 60; ++i) {
    auto id = *db.Create("cell");
    ids.push_back(id);
    ASSERT_TRUE(db.Set(id, "base", Value::Int(i)).ok());
    if (i > 0) {
      ASSERT_TRUE(db.Connect(ids[i], "prev", ids[i - 1], "next").ok());
    }
  }
  EXPECT_GT(db.disk_stats().reads, 0u);  // evictions really happened
  EXPECT_EQ(*db.Get(ids.back(), "acc"), Value::Int(59 * 60 / 2));

  // Update in the middle and re-read; values flow across block faults.
  ASSERT_TRUE(db.Set(ids[30], "base", Value::Int(1000)).ok());
  EXPECT_EQ(*db.Get(ids.back(), "acc"), Value::Int(59 * 60 / 2 - 30 + 1000));
}

TEST(PersistenceTest, OutOfDateMarksSurviveEviction) {
  // 128-byte blocks hold four cells, so the 20 cells span five blocks
  // against the 2-block pool.
  DatabaseOptions opts;
  opts.buffer_capacity = 2;
  opts.block_size = 128;
  Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kGraphSchema).ok());

  std::vector<InstanceId> ids;
  for (int i = 0; i < 20; ++i) {
    auto id = *db.Create("cell");
    ids.push_back(id);
    ASSERT_TRUE(db.Set(id, "base", Value::Int(1)).ok());
    if (i > 0) {
      ASSERT_TRUE(db.Connect(ids[i], "prev", ids[i - 1], "next").ok());
    }
  }
  ASSERT_TRUE(db.Peek(ids.back(), "acc").ok());
  ASSERT_TRUE(db.Set(ids[0], "base", Value::Int(100)).ok());  // marks chain
  // Churn the pool so marked instances are evicted and reloaded.
  for (int round = 0; round < 3; ++round) {
    for (auto id : ids) ASSERT_TRUE(db.Peek(id, "base").ok());
  }
  // The lazily-deferred recomputation still happens on demand.
  EXPECT_EQ(*db.Peek(ids.back(), "acc"), Value::Int(119));
}

TEST(PersistenceTest, FlushThenColdReads) {
  DatabaseOptions opts;
  opts.buffer_capacity = 8;
  Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kGraphSchema).ok());
  auto id = *db.Create("cell");
  ASSERT_TRUE(db.Set(id, "base", Value::Int(11)).ok());
  ASSERT_TRUE(db.Flush().ok());
  EXPECT_EQ(*db.Get(id, "base"), Value::Int(11));
}

TEST(PersistenceTest, ReorganizePreservesContent) {
  // Ten blocks of cells against a 4-block pool: the rewrite and the
  // reads after it go through eviction.
  DatabaseOptions opts;
  opts.buffer_capacity = 4;
  opts.block_size = 128;
  Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kGraphSchema).ok());
  std::vector<InstanceId> ids;
  for (int i = 0; i < 40; ++i) {
    auto id = *db.Create("cell");
    ids.push_back(id);
    ASSERT_TRUE(db.Set(id, "base", Value::Int(i)).ok());
    if (i > 0) {
      ASSERT_TRUE(db.Connect(ids[i], "prev", ids[i - 1], "next").ok());
    }
  }
  // Generate usage so clustering has statistics.
  EXPECT_EQ(*db.Get(ids.back(), "acc"), Value::Int(39 * 40 / 2));
  ASSERT_TRUE(db.Reorganize().ok());
  // Everything still there and consistent.
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(*db.Peek(ids[i], "base"), Value::Int(i));
  }
  ASSERT_TRUE(db.Set(ids[0], "base", Value::Int(500)).ok());
  EXPECT_EQ(*db.Get(ids.back(), "acc"), Value::Int(39 * 40 / 2 + 500));
}

TEST(PersistenceTest, ReorganizeImprovesChainLocality) {
  // Instances created in an interleaved order (poor natural locality),
  // then clustered by usage: a sequential walk needs fewer block reads.
  // The blocks are small enough that the 64 cells span several times the
  // 2-block pool, so the walk has to fault blocks in either way.
  DatabaseOptions opts;
  opts.buffer_capacity = 2;
  opts.block_size = 256;
  Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kGraphSchema).ok());

  constexpr int kN = 64;
  std::vector<InstanceId> ids(kN);
  // Create in bit-reversed-ish order so chain neighbours land on
  // different blocks.
  std::vector<int> order;
  for (int i = 0; i < kN; i += 2) order.push_back(i);
  for (int i = 1; i < kN; i += 2) order.push_back(i);
  for (int pos : order) ids[pos] = *db.Create("cell");
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(db.Set(ids[i], "base", Value::Int(1)).ok());
    if (i > 0) {
      ASSERT_TRUE(db.Connect(ids[i], "prev", ids[i - 1], "next").ok());
    }
  }

  auto walk = [&] {
    uint64_t before = db.disk_stats().reads;
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < kN; ++i) {
        EXPECT_TRUE(db.Peek(ids[i], "base").ok());
      }
    }
    return db.disk_stats().reads - before;
  };

  uint64_t cold = walk();
  // Teach the clustering which relationships are hot.
  ASSERT_TRUE(db.Peek(ids.back(), "acc").ok());
  ASSERT_TRUE(db.Reorganize().ok());
  uint64_t clustered = walk();
  EXPECT_LT(clustered, cold) << "clustered=" << clustered
                             << " cold=" << cold;
}

TEST(PersistenceTest, ReorganizePacksEachClusterIntoOneBlock) {
  // The packer must plan with the record store's usable block bytes;
  // planning with the raw block size overfills full clusters, and the
  // record store spills their last records into extra blocks.
  Database db;  // default 4 KiB blocks
  ASSERT_TRUE(db.LoadSchema(kGraphSchema).ok());
  std::vector<InstanceId> ids;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(*db.Create("cell"));
    ASSERT_TRUE(db.Set(ids[i], "base", Value::Int(i)).ok());
    if (i > 0) {
      ASSERT_TRUE(db.Connect(ids[i], "prev", ids[i - 1], "next").ok());
    }
  }
  ASSERT_TRUE(db.Peek(ids.back(), "acc").ok());
  ASSERT_TRUE(db.Reorganize().ok());
  const ClusterStats& stats = db.cluster_stats();
  EXPECT_GT(stats.clusters_produced, 1u);
  EXPECT_EQ(stats.blocks_produced, stats.clusters_produced);
}

}  // namespace
}  // namespace cactis::core
